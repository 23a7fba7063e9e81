package swrepo

import (
	"strings"
	"testing"

	"repro/internal/platform"
)

func lib(name string, deps ...string) *Package {
	return &Package{
		Name: name,
		Deps: deps,
		Units: []*SourceUnit{
			{Name: "main.cc", Language: LangCxx, Traits: []platform.Trait{platform.TraitCxx98}, Lines: 100},
		},
	}
}

func TestAddAndGet(t *testing.T) {
	r := NewRepository("H1")
	r.MustAdd(lib("a"))
	p, err := r.Get("a")
	if err != nil || p.Name != "a" {
		t.Fatalf("Get(a) = %v, %v", p, err)
	}
	if _, err := r.Get("zz"); err == nil {
		t.Fatal("Get(zz) succeeded, want error")
	}
	if err := r.Add(lib("a")); err == nil {
		t.Fatal("duplicate Add succeeded, want error")
	}
}

func TestBuildOrderRespectsDeps(t *testing.T) {
	r := NewRepository("H1")
	r.MustAdd(lib("app", "libb", "liba"))
	r.MustAdd(lib("liba"))
	r.MustAdd(lib("libb", "liba"))

	order, err := r.BuildOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[string]int)
	for i, p := range order {
		pos[p.Name] = i
	}
	if !(pos["liba"] < pos["libb"] && pos["libb"] < pos["app"]) {
		t.Fatalf("bad order: %v", pos)
	}
}

func TestBuildOrderDeterministic(t *testing.T) {
	mk := func() *Repository {
		r := NewRepository("H1")
		for _, n := range []string{"m", "c", "x", "a", "k"} {
			r.MustAdd(lib(n))
		}
		return r
	}
	a, _ := mk().BuildOrder()
	b, _ := mk().BuildOrder()
	for i := range a {
		if a[i].Name != b[i].Name {
			t.Fatalf("order differs at %d: %s vs %s", i, a[i].Name, b[i].Name)
		}
	}
	// Independent packages come out in name order.
	want := []string{"a", "c", "k", "m", "x"}
	for i, p := range a {
		if p.Name != want[i] {
			t.Fatalf("order = %v at %d, want %v", p.Name, i, want[i])
		}
	}
}

func TestBuildOrderDetectsCycle(t *testing.T) {
	r := NewRepository("H1")
	r.MustAdd(lib("a", "b"))
	r.MustAdd(lib("b", "a"))
	if _, err := r.BuildOrder(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("BuildOrder on cycle = %v, want cycle error", err)
	}
}

func TestValidateCatchesUnknownDep(t *testing.T) {
	r := NewRepository("H1")
	r.MustAdd(lib("a", "ghost"))
	if err := r.Validate(); err == nil {
		t.Fatal("Validate passed with unknown dependency")
	}
}

func TestDependents(t *testing.T) {
	r := NewRepository("H1")
	r.MustAdd(lib("base"))
	r.MustAdd(lib("mid", "base"))
	r.MustAdd(lib("top", "mid", "base"))
	got := r.Dependents("base")
	if len(got) != 2 || got[0] != "mid" || got[1] != "top" {
		t.Fatalf("Dependents(base) = %v", got)
	}
	if got := r.Dependents("top"); len(got) != 0 {
		t.Fatalf("Dependents(top) = %v, want empty", got)
	}
}

func TestTransitiveDeps(t *testing.T) {
	r := NewRepository("H1")
	r.MustAdd(lib("base"))
	r.MustAdd(lib("mid", "base"))
	r.MustAdd(lib("top", "mid"))
	got, err := r.TransitiveDeps("top")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "base" || got[1] != "mid" {
		t.Fatalf("TransitiveDeps(top) = %v", got)
	}
}

func TestPatchApply(t *testing.T) {
	r := NewRepository("H1")
	p := lib("reco")
	p.Units[0].Traits = append(p.Units[0].Traits, platform.TraitPtrIntCast)
	r.MustAdd(p)

	rev := r.Revision
	err := r.Apply(Patch{
		ID: "reco-64bit-fix", Package: "reco", Unit: "main.cc",
		Remove: []platform.Trait{platform.TraitPtrIntCast},
		Note:   "port pointer arithmetic to intptr_t",
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Revision != rev+1 {
		t.Fatalf("revision = %d, want %d", r.Revision, rev+1)
	}
	if p.Units[0].HasTrait(platform.TraitPtrIntCast) {
		t.Fatal("trait still present after patch")
	}
	if !p.Units[0].HasTrait(platform.TraitCxx98) {
		t.Fatal("patch removed unrelated trait")
	}
	if got := r.AppliedPatches(); len(got) != 1 || got[0].ID != "reco-64bit-fix" {
		t.Fatalf("AppliedPatches = %v", got)
	}
}

// TestAppliedPatchesKeepsRepeats applies one patch several times in a
// row around another and checks the log lists every application, in
// order.
func TestAppliedPatchesKeepsRepeats(t *testing.T) {
	r := NewRepository("H1")
	r.MustAdd(lib("reco"))
	bump := Patch{ID: "bump", Package: "reco", Unit: "main.cc", Add: []platform.Trait{platform.TraitCxx98}}
	other := Patch{ID: "other", Package: "reco", Unit: "main.cc", Add: []platform.Trait{platform.TraitCxx98}, Note: "differs"}
	rev := r.Revision
	for _, p := range []Patch{bump, bump, other, bump} {
		if err := r.Apply(p); err != nil {
			t.Fatal(err)
		}
	}
	if r.Revision != rev+4 {
		t.Fatalf("revision = %d, want %d", r.Revision, rev+4)
	}
	var ids []string
	for _, p := range r.AppliedPatches() {
		ids = append(ids, p.ID)
	}
	if got := strings.Join(ids, ","); got != "bump,bump,other,bump" {
		t.Fatalf("AppliedPatches = %s, want bump,bump,other,bump", got)
	}
}

func TestPatchErrors(t *testing.T) {
	r := NewRepository("H1")
	r.MustAdd(lib("reco"))
	cases := []Patch{
		{ID: "p1", Package: "ghost", Unit: "main.cc"},
		{ID: "p2", Package: "reco", Unit: "ghost.cc"},
		{ID: "p3", Package: "reco", Unit: "main.cc", Remove: []platform.Trait{platform.TraitPtrIntCast}},
	}
	for _, p := range cases {
		if err := r.Apply(p); err == nil {
			t.Errorf("patch %s succeeded, want error", p.ID)
		}
	}
	if r.Revision != 1 {
		t.Fatalf("failed patches must not bump revision, got %d", r.Revision)
	}
}

func TestPatchAddTrait(t *testing.T) {
	r := NewRepository("H1")
	r.MustAdd(lib("ana"))
	err := r.Apply(Patch{
		ID: "ana-cxx11-port", Package: "ana", Unit: "main.cc",
		Add:  []platform.Trait{platform.TraitCxx11},
		Note: "modernize for ROOT 6",
	})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := r.Get("ana")
	if !p.Units[0].HasTrait(platform.TraitCxx11) {
		t.Fatal("added trait missing")
	}
}

func TestUnitsWithTrait(t *testing.T) {
	r := NewRepository("H1")
	a := lib("a")
	a.Units[0].Traits = append(a.Units[0].Traits, platform.TraitUninitMemory)
	b := lib("b")
	r.MustAdd(a)
	r.MustAdd(b)
	refs := r.UnitsWithTrait(platform.TraitUninitMemory)
	if len(refs) != 1 || refs[0].Package != "a" || refs[0].Unit != "main.cc" {
		t.Fatalf("UnitsWithTrait = %v", refs)
	}
	if refs[0].String() != "a/main.cc" {
		t.Fatalf("UnitRef.String = %q", refs[0].String())
	}
}

func TestPackageTraitsUnion(t *testing.T) {
	p := &Package{
		Name: "x",
		Units: []*SourceUnit{
			{Name: "a.c", Language: LangC, Traits: []platform.Trait{platform.TraitANSIC, platform.TraitKAndRDecl}},
			{Name: "b.c", Language: LangC, Traits: []platform.Trait{platform.TraitANSIC}},
		},
	}
	got := p.Traits()
	if len(got) != 2 || got[0] != platform.TraitANSIC || got[1] != platform.TraitKAndRDecl {
		t.Fatalf("Traits = %v", got)
	}
}

func TestTotalLines(t *testing.T) {
	p := &Package{Units: []*SourceUnit{{Lines: 100}, {Lines: 250}}}
	if p.TotalLines() != 350 {
		t.Fatalf("TotalLines = %d", p.TotalLines())
	}
}
