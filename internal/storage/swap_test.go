package storage

import (
	"errors"
	"sync"
	"testing"
)

// The CAS contract every writable backend must satisfy: "" means
// must-be-unbound, a stale expected hash loses, and the winner's bind
// is observable immediately.
func testSwapContract(t *testing.T, st *Store) {
	t.Helper()
	h1, swapped, err := st.CompareAndSwap("plan", "lease/x", "", []byte("worker-a epoch 1"))
	if err != nil || !swapped {
		t.Fatalf("claim of unbound name: swapped=%v err=%v", swapped, err)
	}
	// A second claim expecting "unbound" must lose without error.
	_, swapped, err = st.CompareAndSwap("plan", "lease/x", "", []byte("worker-b epoch 1"))
	if err != nil || swapped {
		t.Fatalf("claim over a bound name with old=\"\": swapped=%v err=%v", swapped, err)
	}
	if got, _ := st.Get("plan", "lease/x"); string(got) != "worker-a epoch 1" {
		t.Fatalf("lost race overwrote the binding: %q", got)
	}
	// Swapping over the correct current hash wins...
	h2, swapped, err := st.CompareAndSwap("plan", "lease/x", h1, []byte("worker-a epoch 1 renewed"))
	if err != nil || !swapped {
		t.Fatalf("swap over current hash: swapped=%v err=%v", swapped, err)
	}
	// ...and the loser holding the stale hash does not.
	_, swapped, err = st.CompareAndSwap("plan", "lease/x", h1, []byte("worker-b steal"))
	if err != nil || swapped {
		t.Fatalf("swap over stale hash: swapped=%v err=%v", swapped, err)
	}
	if cur, _ := st.Hash("plan", "lease/x"); cur != h2 {
		t.Fatalf("binding is %s, want %s", cur, h2)
	}
}

func TestCompareAndSwapMemory(t *testing.T) {
	testSwapContract(t, NewStore())
}

func TestCompareAndSwapFS(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	testSwapContract(t, st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// CAS binds ride the same journal as every other bind: reopen and
	// the winner's final value must still be there.
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got, err := st2.Get("plan", "lease/x"); err != nil || string(got) != "worker-a epoch 1 renewed" {
		t.Fatalf("after reopen: %q, %v", got, err)
	}
}

// Many goroutines race to claim the same unbound name; exactly one may
// win — the property the lease layer's correctness rests on.
func TestCompareAndSwapRace(t *testing.T) {
	for _, tc := range []struct {
		name string
		st   *Store
	}{
		{"memory", NewStore()},
		{"fs", func() *Store {
			st, err := OpenWith(t.TempDir(), Options{Sync: SyncNone})
			if err != nil {
				t.Fatal(err)
			}
			return st
		}()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer tc.st.Close()
			const racers = 16
			var wg sync.WaitGroup
			wins := make(chan int, racers)
			for i := 0; i < racers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					_, swapped, err := tc.st.CompareAndSwap("plan", "lease/contended", "", []byte{byte(i)})
					if err != nil {
						t.Errorf("racer %d: %v", i, err)
					}
					if swapped {
						wins <- i
					}
				}(i)
			}
			wg.Wait()
			close(wins)
			var winners []int
			for i := range wins {
				winners = append(winners, i)
			}
			if len(winners) != 1 {
				t.Fatalf("%d racers won the claim, want exactly 1 (winners %v)", len(winners), winners)
			}
		})
	}
}

// The shared-lock read view cannot decide a race, so its
// CompareAndSwapName refuses rather than fall back to a non-atomic bind.
func TestCompareAndSwapReadOnly(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ro, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	_, _, err = ro.CompareAndSwap("plan", "lease/x", "", []byte("nope"))
	if !errors.Is(err, ErrReadOnly) {
		t.Fatalf("CAS on read view: %v, want ErrReadOnly", err)
	}
}
