package storage

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

// TestWrappedBackendKeepsEveryOperation pins that Refresh, Compact and
// CompareAndSwapName are part of the one Backend contract, so a wrapper
// that embeds the interface (wrappedBackend, nametable_test.go) passes
// them through instead of losing them.
func TestWrappedBackendKeepsEveryOperation(t *testing.T) {
	t.Run("read view refreshes", func(t *testing.T) {
		dir := t.TempDir()
		w, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		rb, err := OpenReadOnlyFSBackend(dir)
		if err != nil {
			t.Fatal(err)
		}
		view := NewStoreWith(wrappedBackend{rb})
		defer view.Close()
		if _, err := w.Put("runs", "run-0001", []byte("record")); err != nil {
			t.Fatal(err)
		}
		if err := view.Refresh(); err != nil {
			t.Fatal(err)
		}
		if !view.Exists("runs", "run-0001") {
			t.Fatal("wrapped read view did not pick up the writer's binding on Refresh")
		}
	})

	t.Run("writer compacts", func(t *testing.T) {
		fb, err := OpenFSBackend(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		st := NewStoreWith(wrappedBackend{fb})
		defer st.Close()
		if _, err := st.Put("runs", "run-0001", []byte("record")); err != nil {
			t.Fatal(err)
		}
		cs, err := st.Compact()
		if err != nil {
			t.Fatal(err)
		}
		if cs.Generation != 1 || cs.JournalBytes == 0 {
			t.Fatalf("wrapped writer Compact = %+v, want generation 1 over a non-empty journal", cs)
		}
	})

	t.Run("memory swaps", func(t *testing.T) {
		st := NewStoreWith(wrappedBackend{NewMemoryBackend()})
		if _, swapped, err := st.CompareAndSwap("plan", "lease/x", "", []byte("a")); err != nil || !swapped {
			t.Fatalf("first claim: swapped=%v err=%v, want a win", swapped, err)
		}
		if _, swapped, err := st.CompareAndSwap("plan", "lease/x", "", []byte("b")); err != nil || swapped {
			t.Fatalf("second claim: swapped=%v err=%v, want a lost race", swapped, err)
		}
	})

	t.Run("write API over a read view refuses as read_only", func(t *testing.T) {
		dir := t.TempDir()
		w, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		hash, err := w.Put("runs", "run-0001", []byte("record"))
		if err != nil {
			t.Fatal(err)
		}
		rb, err := OpenReadOnlyFSBackend(dir)
		if err != nil {
			t.Fatal(err)
		}
		view := NewStoreWith(wrappedBackend{rb})
		defer view.Close()
		ts := httptest.NewServer(http.StripPrefix("/api/v1", NewAPIHandler(view, nil).EnableWrites("tok")))
		defer ts.Close()
		for _, req := range []struct{ method, path, body string }{
			{http.MethodPost, "/name", `{"name":"runs/run-0002","hash":"` + hash + `"}`},
			{http.MethodPost, "/name", `{"name":"plan/lease-x","hash":"` + hash + `","cas":true}`},
			{http.MethodPut, "/blob/" + HashBytes([]byte("new")), "new"},
			{http.MethodPost, "/counter", `{"name":"seq/runs"}`},
		} {
			status, resp := apiReq(t, req.method, ts.URL+"/api/v1"+req.path, "tok", []byte(req.body))
			if status != http.StatusForbidden || apiCode(t, resp) != "read_only" {
				t.Errorf("%s %s %s on a read view: %d %s, want 403 read_only", req.method, req.path, req.body, status, resp)
			}
		}
	})
}

// TestOpenRefusesURL pins that a writer open of a store URL fails and
// creates nothing: the filesystem would otherwise make "http:/host" a
// new local store and record into it.
func TestOpenRefusesURL(t *testing.T) {
	base := t.TempDir()
	st, err := Open(base + "/http://127.0.0.1:1")
	if err == nil {
		st.Close()
		t.Fatal("Open of a store URL succeeded")
	}
	if _, serr := os.Stat(filepath.Join(base, "http:")); !os.IsNotExist(serr) {
		t.Fatalf("Open of a store URL created %s (stat: %v)", filepath.Join(base, "http:"), serr)
	}
}
