package intern

import "testing"

func TestStrings(t *testing.T) {
	s := NewStrings()
	if s.Len() != 0 {
		t.Fatalf("Len = %d", s.Len())
	}
	a := s.ID("a")
	b := s.ID("b")
	if a != 0 || b != 1 {
		t.Fatalf("ids = %d, %d", a, b)
	}
	if got := s.ID("a"); got != a {
		t.Fatalf("re-intern a = %d", got)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Name(a) != "a" || s.Name(b) != "b" {
		t.Fatalf("names = %q, %q", s.Name(a), s.Name(b))
	}
	if id, ok := s.Lookup("b"); !ok || id != b {
		t.Fatalf("Lookup(b) = %d, %v", id, ok)
	}
	if _, ok := s.Lookup("zzz"); ok {
		t.Fatal("Lookup of unseen string succeeded")
	}
	if s.Len() != 2 {
		t.Fatal("Lookup interned")
	}
}

func TestIDs(t *testing.T) {
	s := NewIDs()
	// Sparse, out-of-order original ids intern densely in first-seen
	// order.
	if got := s.ID(1000); got != 0 {
		t.Fatalf("ID(1000) = %d", got)
	}
	if got := s.ID(-7); got != 1 {
		t.Fatalf("ID(-7) = %d", got)
	}
	if got := s.ID(1000); got != 0 {
		t.Fatalf("re-intern = %d", got)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Orig(0) != 1000 || s.Orig(1) != -7 {
		t.Fatalf("origs = %d, %d", s.Orig(0), s.Orig(1))
	}
	if id, ok := s.Lookup(-7); !ok || id != 1 {
		t.Fatalf("Lookup(-7) = %d, %v", id, ok)
	}
	if _, ok := s.Lookup(42); ok {
		t.Fatal("Lookup of unseen id succeeded")
	}
}

// TestIDsRemap pins the in-place filter: forgotten keys are unseen,
// survivors keep their order under consecutive ids, and keys interned
// afterwards continue the numbering.
func TestIDsRemap(t *testing.T) {
	s := NewIDs()
	for _, orig := range []int{10, 20, 30, 40, 50} {
		s.ID(orig)
	}
	s.Remap([]int32{-1, 0, -1, 1, 2})
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	for d, orig := range []int{20, 40, 50} {
		if got := s.Orig(int32(d)); got != orig {
			t.Fatalf("Orig(%d) = %d, want %d", d, got, orig)
		}
		if id, ok := s.Lookup(orig); !ok || id != int32(d) {
			t.Fatalf("Lookup(%d) = %d, %v, want %d", orig, id, ok, d)
		}
	}
	for _, orig := range []int{10, 30} {
		if _, ok := s.Lookup(orig); ok {
			t.Fatalf("forgotten key %d still resolves", orig)
		}
	}
	if got := s.ID(30); got != 3 {
		t.Fatalf("re-interned 30 = %d, want 3", got)
	}
}
