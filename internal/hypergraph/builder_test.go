package hypergraph

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"unicode"
	"unsafe"

	"repro/internal/bitset"
)

func TestBuilderNameMode(t *testing.T) {
	h, err := NewBuilder().
		NamedEdge("R1", "A", "B", "C").
		Edge("C", "D", "E").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	want := New([][]string{{"A", "B", "C"}, {"C", "D", "E"}})
	if !h.Equal(want) {
		t.Fatalf("builder = %v, want %v", h, want)
	}
}

func TestBuilderIDMode(t *testing.T) {
	h, err := NewBuilder().
		UniverseSize(5).
		EdgeIDs(0, 1, 2).
		EdgeIDs(4, 2). // unsorted: must be sorted+deduped
		Build()
	if err != nil {
		t.Fatal(err)
	}
	want := FromIDs(5, [][]int32{{0, 1, 2}, {2, 4}})
	if !h.Equal(want) {
		t.Fatalf("builder = %v, want %v", h, want)
	}
	// Undeclared universe: inferred as 1 + max id.
	g, err := NewBuilder().EdgeIDs(0, 7).Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.Universe() != 8 {
		t.Fatalf("inferred universe = %d, want 8", g.Universe())
	}
}

func TestBuilderModeMixingFails(t *testing.T) {
	if _, err := NewBuilder().Edge("A", "B").EdgeIDs(0, 1).Build(); err == nil {
		t.Fatal("name edges then id edges must fail")
	}
	if _, err := NewBuilder().EdgeIDs(0, 1).Edge("A", "B").Build(); err == nil {
		t.Fatal("id edges then name edges must fail")
	}
	if _, err := NewBuilder().UniverseSize(4).Edge("A").Build(); err == nil {
		t.Fatal("universe then name edge must fail")
	}
	if _, err := NewBuilder().UniverseSize(2).EdgeIDs(0, 5).Build(); err == nil {
		t.Fatal("id out of universe must fail")
	}
}

func TestBuilderText(t *testing.T) {
	b := NewBuilder().Text("# comment\nR1: A B\nB C\n")
	h, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if h.NumEdges() != 2 {
		t.Fatalf("edges = %d", h.NumEdges())
	}
	if names := b.EdgeNames(); !reflect.DeepEqual(names, []string{"R1", ""}) {
		t.Fatalf("edge names = %v", names)
	}
	// Text mixes with name-mode edges.
	h2, err := NewBuilder().Edge("X", "A").Text("A B\n").Build()
	if err != nil || h2.NumEdges() != 2 {
		t.Fatalf("text+edge: %v %v", h2, err)
	}
}

func TestParseErrorPositions(t *testing.T) {
	cases := []struct {
		text       string
		line, col  int
		msgPattern string
	}{
		{"A B\n: C D\n", 2, 1, "empty edge name"},
		{"A B\n  ,,,\n", 2, 3, "edge with no nodes"},
		{"# only a comment\n", 1, 1, "no edges"},
	}
	for _, c := range cases {
		_, _, err := Parse(c.text)
		var pe *ErrParse
		if !errors.As(err, &pe) {
			t.Fatalf("Parse(%q) err = %v, want *ErrParse", c.text, err)
		}
		if pe.Line != c.line || pe.Col != c.col {
			t.Fatalf("Parse(%q) position = %d:%d, want %d:%d", c.text, pe.Line, pe.Col, c.line, c.col)
		}
		if !strings.Contains(pe.Msg, c.msgPattern) {
			t.Fatalf("Parse(%q) msg = %q, want ~%q", c.text, pe.Msg, c.msgPattern)
		}
	}
}

func TestSetReturnsErrUnknownNode(t *testing.T) {
	h := Fig1()
	_, err := h.Set("A", "Z")
	var unknown *ErrUnknownNode
	if !errors.As(err, &unknown) || unknown.Name != "Z" {
		t.Fatalf("Set err = %v, want ErrUnknownNode{Z}", err)
	}
}

// TestFingerprint128MatchesStringFingerprint: within one construction mode,
// 128-bit digests must agree with canonical-string equality on a mixed
// corpus (equal strings => equal digests; distinct strings => distinct
// digests, collisions being 2^-128-unlikely).
func TestFingerprint128MatchesStringFingerprint(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var named []*Hypergraph
	named = append(named, Fig1(), Fig1(), Fig5(), Fig1MinusACE(), Triangle(), CyclicCounterexample())
	for i := 0; i < 40; i++ {
		m := 1 + rng.Intn(6)
		edges := make([][]string, m)
		for j := range edges {
			k := 1 + rng.Intn(4)
			e := make([]string, k)
			for l := range e {
				e[l] = string(rune('A' + rng.Intn(8)))
			}
			edges[j] = e
		}
		named = append(named, New(edges))
	}
	byString := map[string]Fingerprint128{}
	seen := map[Fingerprint128]string{}
	for _, h := range named {
		fp, s := h.Fingerprint128(), h.Fingerprint()
		if prev, ok := byString[s]; ok && prev != fp {
			t.Fatalf("equal fingerprints %q got digests %v and %v", s, prev, fp)
		}
		byString[s] = fp
		if prev, ok := seen[fp]; ok && prev != s {
			t.Fatalf("digest collision between %q and %q", prev, s)
		}
		seen[fp] = s
	}
}

// TestFingerprint128IDMode: id-built hypergraphs digest by raw ids; equal
// content agrees, different content differs, and the id route never
// collides with the name route (mode separation).
func TestFingerprint128IDMode(t *testing.T) {
	a := FromIDs(4, [][]int32{{0, 1}, {1, 2, 3}})
	b := FromIDs(4, [][]int32{{0, 1}, {1, 2, 3}})
	if a.Fingerprint128() != b.Fingerprint128() {
		t.Fatal("equal id-built hypergraphs must share a digest")
	}
	c := FromIDs(4, [][]int32{{0, 1}, {1, 2}})
	if a.Fingerprint128() == c.Fingerprint128() {
		t.Fatal("different content must digest differently")
	}
	// Same names, different route: mode byte keeps the domains apart.
	viaNames := New([][]string{{"N0", "N1"}, {"N1", "N2", "N3"}})
	if viaNames.Fingerprint128() == a.Fingerprint128() {
		t.Fatal("name-mode and id-mode digests must be domain-separated")
	}
}

// TestFingerprint128DerivedLazily: hypergraphs built by derivation (no
// constructor pass) compute the digest on first use, and content-equal
// derivations agree with constructed twins.
func TestFingerprint128DerivedLazily(t *testing.T) {
	h := Fig1()
	d := h.Clone()
	if d.Fingerprint128() != h.Fingerprint128() {
		t.Fatal("clone must share the original's digest")
	}
	// A reduced hypergraph digests like itself, consistently.
	r := CyclicCounterexample().Reduce()
	if r.Fingerprint128() != r.Fingerprint128() {
		t.Fatal("digest must be stable")
	}
}

// TestFingerprint128IsolatedNodes: isolated nodes are part of the identity.
func TestFingerprint128IsolatedNodes(t *testing.T) {
	h := Fig1()
	var edges []bitset.Set
	for _, e := range h.Edges() {
		edges = append(edges, e)
	}
	full := h.Derive(h.NodeSet(), edges)
	short := h.Derive(h.MustSet("A", "B", "C"), edges[:1])
	iso := h.Derive(h.NodeSet(), edges[:1]) // D, E, F isolated
	if short.Fingerprint128() == iso.Fingerprint128() {
		t.Fatal("isolated nodes must change the digest")
	}
	if full.Fingerprint128() != h.Fingerprint128() {
		t.Fatal("derive with identical content must digest identically")
	}
}

// referenceParse is Parse as the package implemented it before Builder.Text
// and buildNames became one pass: split into lines, strings.FieldsFunc per
// line, a seen set, sort.Strings, a second index map and a sort.Slice per
// edge. The one-pass builder must agree with it on every input.
func referenceParse(text string) (*Hypergraph, []string, error) {
	var edges [][]string
	var edgeNames []string
	named := false
	for lineNo, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		col := 1 + len(raw) - len(strings.TrimLeft(raw, " \t"))
		name := ""
		if i := strings.Index(line, ":"); i >= 0 {
			name = strings.TrimSpace(line[:i])
			line = line[i+1:]
			if name == "" {
				return nil, nil, &ErrParse{Line: lineNo + 1, Col: col, Msg: "empty edge name"}
			}
		}
		fields := strings.FieldsFunc(line, func(r rune) bool {
			return unicode.IsSpace(r) || r == ','
		})
		if len(fields) == 0 {
			return nil, nil, &ErrParse{Line: lineNo + 1, Col: col, Msg: "edge with no nodes"}
		}
		edges = append(edges, fields)
		edgeNames = append(edgeNames, name)
		named = named || name != ""
	}
	if len(edges) == 0 {
		return nil, nil, &ErrParse{Line: 1, Col: 1, Msg: "no edges in input"}
	}
	if !named {
		edgeNames = make([]string, len(edges))
	}
	return referenceBuild(edges), edgeNames, nil
}

// referenceBuild is the former name-mode Build: the sorted union of all
// names interned to dense ids, each edge's ids sorted and deduplicated.
func referenceBuild(edges [][]string) *Hypergraph {
	seen := map[string]bool{}
	for _, e := range edges {
		for _, n := range e {
			seen[n] = true
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	h := &Hypergraph{
		names:   names,
		index:   make(map[string]int, len(names)),
		n:       len(names),
		nodeSet: bitset.Full(len(names)),
	}
	for i, n := range names {
		h.index[n] = i
	}
	fp := newFingerprintState(modeNames, len(edges))
	for _, e := range edges {
		ids := make([]int32, 0, len(e))
		for _, n := range e {
			ids = append(ids, int32(h.index[n]))
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		edge := edgeFromSortedIDs(bitset.DedupSorted(ids), h.n)
		fp.writeEdge(h, edge)
		h.edges = append(h.edges, edge)
	}
	h.finish128(fp)
	return h
}

// sameBuild fails t unless got and want agree on node names in id order,
// the index, every edge's ids and representation, and Fingerprint128.
func sameBuild(t *testing.T, got, want *Hypergraph) {
	t.Helper()
	if !reflect.DeepEqual(got.names, want.names) {
		t.Fatalf("names = %q, want %q", got.names, want.names)
	}
	if !reflect.DeepEqual(got.index, want.index) {
		t.Fatalf("index = %v, want %v", got.index, want.index)
	}
	if got.n != want.n || !got.nodeSet.Equal(want.nodeSet) {
		t.Fatalf("universe %d %v, want %d %v", got.n, got.nodeSet, want.n, want.nodeSet)
	}
	if len(got.edges) != len(want.edges) {
		t.Fatalf("%d edges, want %d", len(got.edges), len(want.edges))
	}
	for i := range got.edges {
		g, w := got.edges[i], want.edges[i]
		if g.IsSparse() != w.IsSparse() || !reflect.DeepEqual(g.IDs(), w.IDs()) {
			t.Fatalf("edge %d = %v (sparse %v), want %v (sparse %v)", i, g.IDs(), g.IsSparse(), w.IDs(), w.IsSparse())
		}
	}
	if got.Fingerprint128() != want.Fingerprint128() {
		t.Fatalf("Fingerprint128 = %v, want %v", got.Fingerprint128(), want.Fingerprint128())
	}
}

// noAlias fails t if a node name or index key of h points into text.
func noAlias(t *testing.T, h *Hypergraph, text string) {
	t.Helper()
	if len(text) == 0 {
		return
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(text)))
	hi := lo + uintptr(len(text))
	inside := func(s string) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		return len(s) > 0 && p >= lo && p < hi
	}
	for _, n := range h.names {
		if inside(n) {
			t.Fatalf("node name %q points into the input text", n)
		}
	}
	for k := range h.index {
		if inside(k) {
			t.Fatalf("index key %q points into the input text", k)
		}
	}
}

// FuzzParseMatchesReference: for any input, Parse agrees with
// referenceParse on the hypergraph (names, ids, edges, Fingerprint128), the
// edge names, and the error (type, line, column, message), and the parsed
// hypergraph holds no pointer into the input text.
func FuzzParseMatchesReference(f *testing.F) {
	for _, s := range []string{
		Fig1().Format(),
		"# comment\nR1: A B C\nR2: C D E\nA E F\nA, C, E\n",
		"a\u0085b c\u00a0d\u3000e\u2028f\nb c d\n",               // Unicode separators
		"\u3000\u00a0 A B\n \n",                                  // Unicode indentation and blank line
		"\u00a0\u2028\n\t\u3000# comment\nA B\n",                 // Unicode-only blank line, indented comment
		"a\xffb c\n\xc0\x80 d\n\xe2\x80 e\nf \xe2\x80\xa8\xe2\n", // invalid UTF-8
		"A B\r\n\r\nB C\r\n",                                     // CRLF, with a blank CRLF line
		": A B\n",                                                // empty edge name
		"\u00a0\t  : A\n",                                        // whitespace-only edge name
		"R1:\n",                                                  // named edge with no nodes
		"  ,,, \n",                                               // no nodes
		"R1 R2 : A B\nx:y:z\n",                                   // spaced name, second colon
		"# only\n\n   \n#x y\n",                                  // comments and empty lines only
		"\n\nA B\n\n# c\nB C",                                    // no trailing newline
		"dup dup dup\ndup\nx, x ,x\n",                            // duplicate names inside an edge
		"\t\tA B\n \t: C\n",                                      // error column past tabs
		"",                                                       // empty input
		"A#B #C\n  #D\n",                                         // '#' inside and before names
		"\u0085A\u0085:\u0085B\u0085\n",                          // NEL everywhere
		"10 a z 9 Z _ ~ \u00e9 \u00c9\n1 10\n",                   // byte-order sorting
		"common_prefix_b common_prefix_a\ncommon_prefix_aa common_prefix_\n", // 8-byte prefix ties
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		// Copy so aliasing is judged against this call's buffer only.
		text = strings.Clone(text)
		h, names, err := Parse(text)
		rh, rnames, rerr := referenceParse(text)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("Parse err = %v, reference err = %v", err, rerr)
		}
		if err != nil {
			var pe, rpe *ErrParse
			if !errors.As(err, &pe) || !errors.As(rerr, &rpe) || *pe != *rpe {
				t.Fatalf("Parse err = %#v, reference err = %#v", err, rerr)
			}
			return
		}
		if !reflect.DeepEqual(names, rnames) {
			t.Fatalf("edge names = %q, want %q", names, rnames)
		}
		sameBuild(t, h, rh)
		noAlias(t, h, text)
	})
}

// TestNewMatchesReference: name-mode construction through New agrees with
// the former builder on random name lists, including empty edges, empty
// names and duplicates, over universes on both sides of the dense/sparse
// threshold; New copies the names it keeps.
func TestNewMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	prefixes := []string{"", "n", "common_prefix_"} // the last one ties on 8 bytes
	for trial := 0; trial < 200; trial++ {
		universe := 1 + rng.Intn(3000)
		edges := make([][]string, rng.Intn(40))
		var pool strings.Builder
		for i := range edges {
			e := make([]string, rng.Intn(6))
			for j := range e {
				e[j] = fmt.Sprintf("%s%d", prefixes[rng.Intn(len(prefixes))], rng.Intn(universe))
				if rng.Intn(50) == 0 {
					e[j] = ""
				}
				pool.WriteString(e[j])
			}
			edges[i] = e
		}
		// Re-slice every name out of one buffer to check aliasing.
		text := pool.String()
		off := 0
		for _, e := range edges {
			for j := range e {
				e[j], off = text[off:off+len(e[j])], off+len(e[j])
			}
		}
		sameBuild(t, New(edges), referenceBuild(edges))
		noAlias(t, New(edges), text)
	}
}
