package hypergraph

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/bitset"
)

// Builder unifies every hypergraph construction route — node-name edges,
// raw id edges over a declared universe, and the Parse text format — behind
// one accumulator. New, FromIDs, and Parse are thin wrappers over it.
//
// A builder is either in name mode (Edge, NamedEdge, Text) or in id mode
// (UniverseSize, EdgeIDs); mixing the two is reported by Build. Methods
// chain and record the first error, so construction code reads linearly:
//
//	h, err := hypergraph.NewBuilder().
//		NamedEdge("R1", "A", "B", "C").
//		Edge("C", "D", "E").
//		Build()
//
// Builders are not safe for concurrent use; the built Hypergraph is.
type Builder struct {
	universe  int       // declared id universe; < 0 when undeclared
	nodes     []string  // name mode: every edge's node names, concatenated
	ends      []int     // name mode: edge i is nodes[ends[i-1]:ends[i]]
	idEdges   [][]int32 // id-mode edge list
	edgeNames []string  // optional per-edge names, aligned with edges
	named     bool      // some edge carries a nonempty name
	err       error     // first recorded error
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{universe: -1}
}

// fail records the first error and keeps the chain usable.
func (b *Builder) fail(err error) *Builder {
	if b.err == nil {
		b.err = err
	}
	return b
}

// UniverseSize declares the id universe {0, ..., n-1} for EdgeIDs edges and
// switches the builder to id mode.
func (b *Builder) UniverseSize(n int) *Builder {
	if len(b.ends) > 0 {
		return b.fail(fmt.Errorf("hypergraph: Builder: cannot mix id universe with name edges"))
	}
	if n < 0 {
		return b.fail(fmt.Errorf("hypergraph: Builder: negative universe size %d", n))
	}
	b.universe = n
	return b
}

// Edge appends an unnamed edge given as node names.
func (b *Builder) Edge(nodes ...string) *Builder {
	return b.NamedEdge("", nodes...)
}

// NamedEdge appends an edge given as node names, recording an optional edge
// name ("" for unnamed) retrievable from EdgeNames after Build.
func (b *Builder) NamedEdge(name string, nodes ...string) *Builder {
	b.nodes = append(b.nodes, nodes...)
	return b.sealEdge(name)
}

// sealEdge closes the name-mode edge whose nodes were just appended to
// b.nodes. In id mode there are no name-mode nodes, so the append is undone
// and the mixing error recorded.
func (b *Builder) sealEdge(name string) *Builder {
	if len(b.idEdges) > 0 || b.universe >= 0 {
		b.nodes = b.nodes[:0]
		return b.fail(fmt.Errorf("hypergraph: Builder: cannot mix name edges with id edges"))
	}
	b.ends = append(b.ends, len(b.nodes))
	b.edgeNames = append(b.edgeNames, name)
	if name != "" {
		b.named = true
	}
	return b
}

// EdgeIDs appends an edge given as node ids over the declared universe and
// switches the builder to id mode. Already-sorted slices are adopted without
// copying (the FromIDs contract), so callers must not reuse them.
func (b *Builder) EdgeIDs(ids ...int32) *Builder {
	if len(b.ends) > 0 {
		return b.fail(fmt.Errorf("hypergraph: Builder: cannot mix id edges with name edges"))
	}
	b.idEdges = append(b.idEdges, ids)
	b.edgeNames = append(b.edgeNames, "")
	return b
}

// Text appends every edge of the Parse text format: one edge per line,
// nodes separated by whitespace or commas, optional "name:" prefixes, '#'
// comments. Syntax errors are reported by Build as *ErrParse with 1-based
// line and column.
//
// Apart from a newline count that sizes the buffers, the text is read
// once: lines are found with a byte search, and fields with a byte scan
// that decodes a rune only at bytes >= 0x80, so
// Unicode whitespace (unicode.IsSpace) separates fields as it does for
// strings.FieldsFunc. Node names stay substrings of text until Build copies
// them out.
func (b *Builder) Text(text string) *Builder {
	lines := strings.Count(text, "\n") + 1
	b.ends = slices.Grow(b.ends, lines)
	b.edgeNames = slices.Grow(b.edgeNames, lines)
	b.nodes = slices.Grow(b.nodes, len(text)/6)
	for lineNo, start := 1, 0; start <= len(text); lineNo++ {
		end := len(text)
		if i := strings.IndexByte(text[start:], '\n'); i >= 0 {
			end = start + i
		}
		raw := text[start:end]
		start = end + 1
		i := skipSpace(raw)
		if i == len(raw) || raw[i] == '#' {
			continue
		}
		col := 1 + len(raw) - len(strings.TrimLeft(raw, " \t"))
		name := ""
		if k := strings.IndexByte(raw[i:], ':'); k >= 0 {
			name = strings.TrimSpace(raw[i : i+k])
			i += k + 1
			if name == "" {
				return b.fail(&ErrParse{Line: lineNo, Col: col, Msg: "empty edge name"})
			}
		}
		mark := len(b.nodes)
		b.nodes = appendFields(b.nodes, raw[i:])
		if len(b.nodes) == mark {
			return b.fail(&ErrParse{Line: lineNo, Col: col, Msg: "edge with no nodes"})
		}
		b.sealEdge(name)
	}
	return b
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// spaceAt reports whether the rune starting at s[i] is whitespace and its
// width in bytes. Invalid UTF-8 reads as a one-byte non-space rune, as in a
// range loop over s.
func spaceAt(s string, i int) (bool, int) {
	if c := s[i]; c < utf8.RuneSelf {
		return asciiSpace[c], 1
	}
	r, w := utf8.DecodeRuneInString(s[i:])
	return unicode.IsSpace(r), w
}

// skipSpace returns the byte offset of the first non-whitespace rune of s.
func skipSpace(s string) int {
	i := 0
	for i < len(s) {
		space, w := spaceAt(s, i)
		if !space {
			break
		}
		i += w
	}
	return i
}

// appendFields appends the fields of s to dst, splitting at commas and
// whitespace as strings.FieldsFunc would.
func appendFields(dst []string, s string) []string {
	field := -1 // start of the current field, or -1 between fields
	for i := 0; i < len(s); {
		space, w := spaceAt(s, i)
		if space || s[i] == ',' {
			if field >= 0 {
				dst = append(dst, s[field:i])
				field = -1
			}
		} else if field < 0 {
			field = i
		}
		i += w
	}
	if field >= 0 {
		dst = append(dst, s[field:])
	}
	return dst
}

// EdgeNames returns the recorded per-edge names, aligned with edge order
// ("" for unnamed edges), or nil when no edge was named.
func (b *Builder) EdgeNames() []string {
	if !b.named {
		return nil
	}
	return append([]string(nil), b.edgeNames...)
}

// Build assembles the hypergraph. Name-mode universes are the sorted union
// of all names; id-mode universes are UniverseSize (or 1 + the largest id
// seen when undeclared). The first recorded error — mode mixing, parse
// errors, ids out of universe — is returned instead.
func (b *Builder) Build() (*Hypergraph, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.idEdges) > 0 || b.universe >= 0 {
		return b.buildIDs()
	}
	return b.buildNames(), nil
}

// MustBuild is Build panicking on error, for wrappers whose inputs are
// structurally valid by construction.
func (b *Builder) MustBuild() *Hypergraph {
	h, err := b.Build()
	if err != nil {
		panic(err)
	}
	return h
}

// buildNames interns every node name to a dense id in sorted-name order
// and assembles adaptive edges; the streaming fingerprint folds in as edges
// are laid down (finish128 seals it).
//
// Each occurrence is looked up once, in the map that becomes the index,
// under a first-seen id; the distinct names are then sorted once and one
// id arena is remapped through the rank table. The distinct names are
// copied into one contiguous string that backs both names and the index
// keys, so the hypergraph never holds on to the caller's strings (for
// Parse, the request text). Sparse edges adopt capped sub-slices of the
// arena.
func (b *Builder) buildNames() *Hypergraph {
	index := make(map[string]int, len(b.nodes)/2)
	// distinct holds no pointers, so sorting it moves 16-byte values with
	// no write barriers; the name is b.nodes[at].
	type distinct struct {
		key uint64 // the name's first 8 bytes, big-endian, zero-padded
		id  int32  // first-seen id
		at  int32  // first occurrence in b.nodes
	}
	seen := make([]distinct, 0, len(b.nodes)/2)
	arena := make([]int32, len(b.nodes))
	size := 0
	for i, n := range b.nodes {
		id, ok := index[n]
		if !ok {
			id = len(seen)
			index[n] = id
			seen = append(seen, distinct{prefixKey(n), int32(id), int32(i)})
			size += len(n)
		}
		arena[i] = int32(id)
	}
	slices.SortFunc(seen, func(x, y distinct) int {
		if x.key != y.key {
			return cmp.Compare(x.key, y.key)
		}
		return strings.Compare(b.nodes[x.at], b.nodes[y.at])
	})

	var buf strings.Builder
	buf.Grow(size)
	for _, d := range seen {
		buf.WriteString(b.nodes[d.at])
	}
	all := buf.String()
	names := make([]string, len(seen))
	rank := make([]int32, len(seen))
	off := 0
	for r, d := range seen {
		old := b.nodes[d.at]
		names[r] = all[off : off+len(old)]
		off += len(old)
		rank[d.id] = int32(r)
		// Assigning to an existing string key also stores the new key
		// string, so the index stops pointing at the caller's strings
		// (pinned by the builder's aliasing tests).
		index[names[r]] = r
	}
	for i, id := range arena {
		arena[i] = rank[id]
	}

	n := len(names)
	h := &Hypergraph{
		names:   names,
		index:   index,
		n:       n,
		nodeSet: bitset.Full(n),
		edges:   make([]Edge, 0, len(b.ends)),
	}
	fp := newFingerprintState(modeNames, len(b.ends))
	start := 0
	for _, end := range b.ends {
		ids := arena[start:end:end]
		start = end
		slices.Sort(ids)
		ids = bitset.DedupSorted(ids)
		edge := edgeFromSortedIDs(ids[:len(ids):len(ids)], n)
		fp.writeEdge(h, edge)
		h.edges = append(h.edges, edge)
	}
	h.finish128(fp)
	return h
}

// prefixKey packs the first 8 bytes of s big-endian, zero-padded. Unequal
// keys order their strings lexicographically (padding sorts below every
// byte, as a proper prefix does); equal keys need a full comparison.
func prefixKey(s string) uint64 {
	var k uint64
	for i := 0; i < 8; i++ {
		k <<= 8
		if i < len(s) {
			k |= uint64(s[i])
		}
	}
	return k
}

// buildIDs assembles an id-universe hypergraph (synthetic "N<id>" names),
// sorting and deduplicating unsorted inputs and adopting sorted ones.
func (b *Builder) buildIDs() (*Hypergraph, error) {
	n := b.universe
	if n < 0 {
		n = 0
		for _, ids := range b.idEdges {
			for _, id := range ids {
				if int(id) >= n {
					n = int(id) + 1
				}
			}
		}
	}
	h := &Hypergraph{
		n:       n,
		nodeSet: bitset.Full(n),
	}
	fp := newFingerprintState(modeIDs, len(b.idEdges))
	h.edges = make([]Edge, 0, len(b.idEdges))
	for _, ids := range b.idEdges {
		sorted := true
		for i, id := range ids {
			if id < 0 || int(id) >= n {
				return nil, fmt.Errorf("hypergraph: Builder: id %d out of universe [0, %d)", id, n)
			}
			if i > 0 && ids[i-1] >= id {
				sorted = false
			}
		}
		if !sorted {
			cp := make([]int32, len(ids))
			copy(cp, ids)
			slices.Sort(cp)
			ids = bitset.DedupSorted(cp)
		}
		edge := edgeFromSortedIDs(ids, n)
		fp.writeEdge(h, edge)
		h.edges = append(h.edges, edge)
	}
	h.finish128(fp)
	return h, nil
}
