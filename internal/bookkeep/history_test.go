package bookkeep

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/valtest"
)

func TestHistoryAcrossRuns(t *testing.T) {
	h := newHarness()

	h.run(t, h.context(sl5(), "5.34", 1), "r1", map[string]valtest.Outcome{
		"chain/validate": valtest.OutcomePass,
	})
	h.run(t, h.context(sl6(), "5.34", 1), "r2", map[string]valtest.Outcome{
		"chain/validate": valtest.OutcomeFail,
	})
	h.run(t, h.context(sl6(), "5.34", 2), "r3", map[string]valtest.Outcome{
		"chain/validate": valtest.OutcomePass,
	})

	entries, err := h.index(t).History("H1", "chain/validate")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("entries = %d", len(entries))
	}
	if entries[0].Config != sl5().String() || entries[1].Config != sl6().String() {
		t.Fatalf("configs = %s, %s", entries[0].Config, entries[1].Config)
	}
	if entries[2].Revision != 2 {
		t.Fatalf("revision = %d", entries[2].Revision)
	}

	first, ok := FirstFailure(entries)
	if !ok || first.RunID != entries[1].RunID {
		t.Fatalf("FirstFailure = %+v, %v", first, ok)
	}

	trans := Transitions(entries)
	if len(trans) != 3 { // pass (initial), fail, pass
		t.Fatalf("transitions = %d, want 3", len(trans))
	}

	rendered := RenderHistory("chain/validate", entries)
	for _, want := range []string{"3 executions", "pass", "fail", sl6().String()} {
		if !strings.Contains(rendered, want) {
			t.Errorf("render missing %q:\n%s", want, rendered)
		}
	}
}

func TestHistoryUnknownTest(t *testing.T) {
	h := newHarness()
	h.run(t, h.context(sl5(), "5.34", 1), "r1", map[string]valtest.Outcome{"a": valtest.OutcomePass})
	if _, err := h.index(t).History("H1", "ghost"); err == nil {
		t.Fatal("unknown test history returned")
	}
}

func TestFirstFailureNever(t *testing.T) {
	entries := []HistoryEntry{
		{Outcome: valtest.OutcomePass},
		{Outcome: valtest.OutcomePass},
	}
	if _, ok := FirstFailure(entries); ok {
		t.Fatal("FirstFailure found one in an all-pass history")
	}
}

// TestIndexHistoryMatchesBook: the index answers History and
// FlakyTests identically to the full-rescan oracle — including after a
// segment round trip, so the marks survive persistence and no run
// record is decoded to serve the queries.
func TestIndexHistoryMatchesBook(t *testing.T) {
	h := newHarness()
	book := NewRescanOracle(h.store)
	h.run(t, h.context(sl5(), "5.34", 1), "r1", map[string]valtest.Outcome{
		"chain/validate": valtest.OutcomePass,
		"flappy":         valtest.OutcomePass,
	})
	h.run(t, h.context(sl5(), "5.34", 1), "r2", map[string]valtest.Outcome{
		"chain/validate": valtest.OutcomePass,
		"flappy":         valtest.OutcomeError,
	})
	h.run(t, h.context(sl6(), "5.34", 2), "r3", map[string]valtest.Outcome{
		"chain/validate": valtest.OutcomeFail,
	})

	check := func(stage string, x *Index) {
		t.Helper()
		for _, test := range []string{"chain/validate", "flappy"} {
			want, err := book.History("H1", test)
			if err != nil {
				t.Fatal(err)
			}
			got, err := x.History("H1", test)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: index history of %q diverges from the oracle:\n got %+v\nwant %+v", stage, test, got, want)
			}
		}
		if _, err := x.History("H1", "ghost"); err == nil {
			t.Fatalf("%s: unknown-test history did not error", stage)
		}
		wantFlaky, err := book.FlakyTests("H1")
		if err != nil {
			t.Fatal(err)
		}
		gotFlaky, err := x.FlakyTests("H1")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotFlaky, wantFlaky) {
			t.Fatalf("%s: index flaky set %v, oracle %v", stage, gotFlaky, wantFlaky)
		}
	}

	x, err := BuildIndex(h.store)
	if err != nil {
		t.Fatal(err)
	}
	check("fresh index", x)
	if err := x.SaveSegment(h.store); err != nil {
		t.Fatal(err)
	}
	x2, err := BuildIndex(h.store)
	if err != nil {
		t.Fatal(err)
	}
	check("segment-loaded index", x2)
}

func TestFlakyTests(t *testing.T) {
	h := newHarness()

	// Same config, same revision, flipping outcome: flaky.
	h.run(t, h.context(sl5(), "5.34", 1), "r1", map[string]valtest.Outcome{
		"stable": valtest.OutcomePass,
		"flappy": valtest.OutcomePass,
	})
	h.run(t, h.context(sl5(), "5.34", 1), "r2", map[string]valtest.Outcome{
		"stable": valtest.OutcomePass,
		"flappy": valtest.OutcomeError,
	})
	// Different config flipping outcome: NOT flaky (explained by input).
	h.run(t, h.context(sl6(), "5.34", 1), "r3", map[string]valtest.Outcome{
		"stable": valtest.OutcomeFail,
		"flappy": valtest.OutcomeError,
	})

	flaky, err := h.index(t).FlakyTests("H1")
	if err != nil {
		t.Fatal(err)
	}
	if len(flaky) != 1 || flaky[0] != "flappy" {
		t.Fatalf("FlakyTests = %v", flaky)
	}
}
