package relation

import (
	"math/rand"
	"reflect"
	"strconv"
	"testing"
)

func TestNewNormalizesAndDedups(t *testing.T) {
	r := MustNew([]string{"B", "A"},
		[]string{"b1", "a1"},
		[]string{"b1", "a1"}, // duplicate
		[]string{"b2", "a2"},
	)
	if got := r.Attrs(); !reflect.DeepEqual(got, []string{"A", "B"}) {
		t.Fatalf("Attrs = %v", got)
	}
	if r.Card() != 2 {
		t.Fatalf("Card = %d, want 2", r.Card())
	}
	rows := r.Rows()
	if !reflect.DeepEqual(rows[0], []string{"a1", "b1"}) {
		t.Fatalf("row reordering failed: %v", rows)
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New([]string{"A", "A"}); err == nil {
		t.Fatal("duplicate attribute must fail")
	}
	if _, err := New([]string{""}); err == nil {
		t.Fatal("empty attribute must fail")
	}
	if _, err := New([]string{"A"}, []string{"x", "y"}); err == nil {
		t.Fatal("row width mismatch must fail")
	}
}

func TestProject(t *testing.T) {
	r := MustNew([]string{"A", "B", "C"},
		[]string{"1", "x", "p"},
		[]string{"1", "y", "p"},
		[]string{"2", "x", "q"},
	)
	p, err := r.Project([]string{"C", "A"})
	if err != nil {
		t.Fatal(err)
	}
	want := MustNew([]string{"A", "C"},
		[]string{"1", "p"}, []string{"2", "q"})
	if !p.Equal(want) {
		t.Fatalf("Project = \n%v want \n%v", p, want)
	}
	if _, err := r.Project([]string{"Z"}); err == nil {
		t.Fatal("unknown attribute must fail")
	}
	// Projection onto duplicated list collapses.
	p2, _ := r.Project([]string{"A", "A"})
	if got := p2.Attrs(); !reflect.DeepEqual(got, []string{"A"}) {
		t.Fatalf("dup projection attrs = %v", got)
	}
}

func TestSelect(t *testing.T) {
	r := MustNew([]string{"A", "B"},
		[]string{"1", "x"}, []string{"2", "y"})
	s := r.Select(func(get func(string) string) bool { return get("A") == "1" })
	if s.Card() != 1 || s.Rows()[0][1] != "x" {
		t.Fatalf("Select = %v", s)
	}
}

func TestNaturalJoin(t *testing.T) {
	ab := MustNew([]string{"A", "B"},
		[]string{"1", "x"}, []string{"2", "y"})
	bc := MustNew([]string{"B", "C"},
		[]string{"x", "p"}, []string{"x", "q"}, []string{"z", "r"})
	j := ab.Join(bc)
	want := MustNew([]string{"A", "B", "C"},
		[]string{"1", "x", "p"}, []string{"1", "x", "q"})
	if !j.Equal(want) {
		t.Fatalf("Join =\n%vwant\n%v", j, want)
	}
}

func TestJoinNoSharedIsCrossProduct(t *testing.T) {
	a := MustNew([]string{"A"}, []string{"1"}, []string{"2"})
	b := MustNew([]string{"B"}, []string{"x"})
	j := a.Join(b)
	if j.Card() != 2 {
		t.Fatalf("cross product card = %d", j.Card())
	}
}

func TestJoinIsCommutativeAndAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	mk := func(attrs []string) *Relation {
		var rows [][]string
		for i := 0; i < 12; i++ {
			row := make([]string, len(attrs))
			for j := range row {
				row[j] = strconv.Itoa(rng.Intn(3))
			}
			rows = append(rows, row)
		}
		return MustNew(attrs, rows...)
	}
	for i := 0; i < 20; i++ {
		a := mk([]string{"A", "B"})
		b := mk([]string{"B", "C"})
		c := mk([]string{"C", "D"})
		if !a.Join(b).Equal(b.Join(a)) {
			t.Fatal("join not commutative")
		}
		if !a.Join(b).Join(c).Equal(a.Join(b.Join(c))) {
			t.Fatal("join not associative")
		}
	}
}

func TestSemijoin(t *testing.T) {
	ab := MustNew([]string{"A", "B"},
		[]string{"1", "x"}, []string{"2", "y"}, []string{"3", "z"})
	b := MustNew([]string{"B"}, []string{"x"}, []string{"y"})
	sj := ab.Semijoin(b)
	want := MustNew([]string{"A", "B"},
		[]string{"1", "x"}, []string{"2", "y"})
	if !sj.Equal(want) {
		t.Fatalf("Semijoin = %v", sj)
	}
	// Semijoin == projection of the join (the defining identity).
	viaJoin, _ := ab.Join(b).Project(ab.Attrs())
	if !sj.Equal(viaJoin) {
		t.Fatal("semijoin identity violated")
	}
}

func TestSemijoinNoShared(t *testing.T) {
	ab := MustNew([]string{"A", "B"}, []string{"1", "x"})
	c := MustNew([]string{"C"}, []string{"q"})
	if !ab.Semijoin(c).Equal(ab) {
		t.Fatal("semijoin with nonempty disjoint relation must be identity")
	}
	cEmpty := MustNew([]string{"C"})
	if ab.Semijoin(cEmpty).Card() != 0 {
		t.Fatal("semijoin with empty disjoint relation must be empty")
	}
}

func TestUnionMinus(t *testing.T) {
	a := MustNew([]string{"A"}, []string{"1"}, []string{"2"})
	b := MustNew([]string{"A"}, []string{"2"}, []string{"3"})
	u, err := a.Union(b)
	if err != nil || u.Card() != 3 {
		t.Fatalf("Union = %v (%v)", u, err)
	}
	m, err := a.Minus(b)
	if err != nil || !m.Equal(MustNew([]string{"A"}, []string{"1"})) {
		t.Fatalf("Minus = %v (%v)", m, err)
	}
	c := MustNew([]string{"B"}, []string{"1"})
	if _, err := a.Union(c); err == nil {
		t.Fatal("schema mismatch union must fail")
	}
	if _, err := a.Minus(c); err == nil {
		t.Fatal("schema mismatch minus must fail")
	}
}

func TestEqualAndContains(t *testing.T) {
	a := MustNew([]string{"A", "B"}, []string{"1", "x"}, []string{"2", "y"})
	b := MustNew([]string{"B", "A"}, []string{"y", "2"}, []string{"x", "1"})
	if !a.Equal(b) {
		t.Fatal("attribute order must not affect equality")
	}
	sub := MustNew([]string{"A", "B"}, []string{"1", "x"})
	if !a.Contains(sub) || sub.Contains(a) {
		t.Fatal("Contains wrong")
	}
	other := MustNew([]string{"A"}, []string{"1"})
	if a.Equal(other) || a.Contains(other) {
		t.Fatal("schema mismatch must not compare equal")
	}
}

func TestValue(t *testing.T) {
	r := MustNew([]string{"A", "B"}, []string{"1", "x"})
	row := r.Rows()[0]
	if v, ok := r.Value(row, "B"); !ok || v != "x" {
		t.Fatalf("Value = %q, %v", v, ok)
	}
	if _, ok := r.Value(row, "Z"); ok {
		t.Fatal("unknown attribute must not resolve")
	}
}

func TestJoinAll(t *testing.T) {
	idt := JoinAll(nil)
	if idt.Card() != 1 || len(idt.Attrs()) != 0 {
		t.Fatalf("join identity = %v", idt)
	}
	a := MustNew([]string{"A", "B"}, []string{"1", "x"})
	b := MustNew([]string{"B", "C"}, []string{"x", "p"})
	c := MustNew([]string{"C", "D"}, []string{"p", "w"})
	j := JoinAll([]*Relation{a, b, c})
	want := MustNew([]string{"A", "B", "C", "D"}, []string{"1", "x", "p", "w"})
	if !j.Equal(want) {
		t.Fatalf("JoinAll = %v", j)
	}
	// Identity element composes.
	if !idt.Join(a).Equal(a) {
		t.Fatal("nullary relation must be the join identity")
	}
}

func TestStringRendering(t *testing.T) {
	r := MustNew([]string{"A", "B"}, []string{"1", "x"})
	s := r.String()
	if s != "A | B\n1 | x\n" {
		t.Fatalf("String = %q", s)
	}
}

func TestProjectionJoinIdentityOnRandomData(t *testing.T) {
	// π_X(R ⋈ S) == π_X(π_{X∪shared}(R) ⋈ π_{X∪shared}(S)) sanity on random
	// data: projecting early onto the needed attributes plus the join keys
	// must not change the result. This is the rewriting QueryCC relies on.
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 25; i++ {
		var rows1, rows2 [][]string
		for k := 0; k < 15; k++ {
			rows1 = append(rows1, []string{strconv.Itoa(rng.Intn(3)), strconv.Itoa(rng.Intn(3)), strconv.Itoa(rng.Intn(3))})
			rows2 = append(rows2, []string{strconv.Itoa(rng.Intn(3)), strconv.Itoa(rng.Intn(3)), strconv.Itoa(rng.Intn(3))})
		}
		r := MustNew([]string{"A", "B", "U"}, rows1...)
		s := MustNew([]string{"B", "C", "V"}, rows2...)
		full, _ := r.Join(s).Project([]string{"A", "C"})
		pr, _ := r.Project([]string{"A", "B"})
		ps, _ := s.Project([]string{"B", "C"})
		early, _ := pr.Join(ps).Project([]string{"A", "C"})
		if !full.Equal(early) {
			t.Fatal("early projection identity violated")
		}
	}
}

// TestIndexedAccessorsMatchFacade: NumAttrs/Attr/ForEachRow are the
// allocation-free twins of Attrs/Rows — same attributes, same tuple set.
func TestIndexedAccessorsMatchFacade(t *testing.T) {
	r := MustNew([]string{"B", "A", "C"},
		[]string{"2", "1", "3"},
		[]string{"5", "4", "6"},
	)
	attrs := r.Attrs()
	if r.NumAttrs() != len(attrs) {
		t.Fatalf("NumAttrs = %d, want %d", r.NumAttrs(), len(attrs))
	}
	for i, a := range attrs {
		if r.Attr(i) != a {
			t.Fatalf("Attr(%d) = %q, want %q", i, r.Attr(i), a)
		}
	}
	seen := map[string]bool{}
	n := 0
	r.ForEachRow(func(row []string) {
		seen[rowKey(row)] = true
		n++
	})
	if n != r.Card() {
		t.Fatalf("ForEachRow visited %d rows, want %d", n, r.Card())
	}
	for _, row := range r.Rows() {
		if !seen[rowKey(row)] {
			t.Fatalf("ForEachRow missed row %v", row)
		}
	}
}

// TestForEachRowAllocates pins the point of the accessors: iterating all
// rows must not allocate, while Rows copies every tuple.
func TestForEachRowAllocates(t *testing.T) {
	rows := make([][]string, 200)
	for i := range rows {
		rows[i] = []string{strconv.Itoa(i), strconv.Itoa(i * 2)}
	}
	r := MustNew([]string{"A", "B"}, rows...)
	got := testing.AllocsPerRun(10, func() {
		r.ForEachRow(func(row []string) {
			if len(row) != 2 {
				t.Fatal("bad row")
			}
		})
	})
	// One allocation for the closure is tolerated; per-row copies are not.
	if got > 1 {
		t.Fatalf("ForEachRow allocated %.0f times per run", got)
	}
}

// Row keys are injective: cells containing NUL bytes (any byte a separator
// could use) never make two distinct tuples look alike. ("a\x00b", "c") and
// ("a", "b\x00c") are distinct tuples in every operator.
func TestRowKeysInjective(t *testing.T) {
	x, y := []string{"a\x00b", "c"}, []string{"a", "b\x00c"}
	if r := MustNew([]string{"A", "B"}, x, y); r.Card() != 2 {
		t.Errorf("New kept %d of 2 distinct rows: %v", r.Card(), r.Rows())
	}
	// Shared attributes {A, B}: the rows agree on no shared value.
	r := MustNew([]string{"A", "B", "C"}, append(x, "r"))
	s := MustNew([]string{"A", "B", "D"}, append(y, "s"))
	if j := r.Join(s); j.Card() != 0 {
		t.Errorf("Join matched distinct keys: %v", j.Rows())
	}
	if sj := r.Semijoin(s); sj.Card() != 0 {
		t.Errorf("Semijoin matched distinct keys: %v", sj.Rows())
	}
	// Join output rows are deduplicated by the same key.
	u := MustNew([]string{"C", "D"}, []string{"c", "d"})
	j := MustNew([]string{"A", "B"}, x, y).Join(u)
	if j.Card() != 2 {
		t.Errorf("Join kept %d of 2 distinct output rows: %v", j.Card(), j.Rows())
	}
	m, err := MustNew([]string{"A", "B"}, x).Minus(MustNew([]string{"A", "B"}, y))
	if err != nil {
		t.Fatal(err)
	}
	if m.Card() != 1 {
		t.Errorf("Minus removed a distinct row: %v", m.Rows())
	}
}
