package runner

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/simclock"
	"repro/internal/storage"
	"repro/internal/valtest"
)

// countingBackend counts the store writes made through it.
type countingBackend struct {
	storage.Backend
	puts, binds, incs atomic.Int64
}

func (b *countingBackend) PutBlob(hash string, data []byte) error {
	b.puts.Add(1)
	return b.Backend.PutBlob(hash, data)
}

func (b *countingBackend) BindName(name, hash string) error {
	b.binds.Add(1)
	return b.Backend.BindName(name, hash)
}

func (b *countingBackend) Increment(name string, n int) (int, error) {
	b.incs.Add(1)
	return b.Backend.Increment(name, n)
}

// writeCounts is what recording one run cost the store.
type writeCounts struct{ PutBlob, BindName, Increment int64 }

// recordRun records one run of a suite of the given size — half
// standalone tests, half a dependency chain — and returns the store
// writes it made, checking the run's job numbering and kept
// environment on the way.
func recordRun(t *testing.T, jobs int) writeCounts {
	t.Helper()
	be := &countingBackend{Backend: storage.NewMemoryBackend()}
	store := storage.NewStoreWith(be)
	suite := valtest.NewSuite("H1")
	prev := []string(nil)
	for i := 0; i < jobs; i++ {
		name := fmt.Sprintf("t%02d", i)
		if i%2 == 0 {
			suite.MustAdd(passTest(name, valtest.CatStandalone, time.Second))
			continue
		}
		suite.MustAdd(passTest(name, valtest.CatChain, time.Second, prev...))
		prev = []string{name}
	}
	base := baseContext(store)
	base.Env = storage.Env{"ROOTSYS": "/opt/root/5.34"}
	before := writeCounts{be.puts.Load(), be.binds.Load(), be.incs.Load()}
	rec, err := New(store, simclock.New()).Run(suite, base, "work count")
	if err != nil {
		t.Fatal(err)
	}
	got := writeCounts{be.puts.Load() - before.PutBlob, be.binds.Load() - before.BindName, be.incs.Load() - before.Increment}

	if len(rec.Jobs) != jobs {
		t.Fatalf("%d jobs recorded, want %d", len(rec.Jobs), jobs)
	}
	for i, j := range rec.Jobs {
		if want := fmt.Sprintf("job-%06d", i+1); j.JobID != want {
			t.Fatalf("job %d (%s) has ID %s, want %s: jobs are numbered from one block in topological order", i, j.Result.Test, j.JobID, want)
		}
		if j.EnvKey != rec.RunID+"/env" {
			t.Fatalf("job %s keeps its environment at %q, want the run's %q", j.JobID, j.EnvKey, rec.RunID+"/env")
		}
		env, err := LoadJobEnv(store, &j)
		if err != nil {
			t.Fatal(err)
		}
		want := storage.Env{
			"ROOTSYS":          "/opt/root/5.34",
			storage.EnvRunID:   rec.RunID,
			storage.EnvJobID:   j.JobID,
			storage.EnvWorkDir: rec.RunID,
		}
		if !reflect.DeepEqual(env, want) {
			t.Fatalf("job %s env = %v, want %v", j.JobID, env, want)
		}
	}
	if n, err := store.Increment("meta", "jobseq", 1); err != nil || n != jobs+1 {
		t.Fatalf("job counter continues at %d, %v; want %d", n, err, jobs+1)
	}
	return got
}

// Recording a run costs the store a fixed number of writes whatever
// its job count: one block of job IDs, one kept environment, one run
// record. A figure that does not depend on the host.
func TestRunWritesIndependentOfJobCount(t *testing.T) {
	one, forty := recordRun(t, 1), recordRun(t, 40)
	if one != forty {
		t.Fatalf("store writes for 1 job %+v, for 40 jobs %+v: want equal", one, forty)
	}
	t.Logf("store writes per run: %+v", one)
}

// A record written when every job kept its own environment (EnvKey
// "<jobID>/env", the blob carrying SP_JOB_ID) still loads unchanged.
func TestLoadJobEnvOldRecord(t *testing.T) {
	store := storage.NewStore()
	rec := RunRecord{RunID: "run-0001", Experiment: "H1"}
	envs := map[string]storage.Env{}
	for _, id := range []string{"job-000001", "job-000002"} {
		env := storage.Env{
			"ROOTSYS":          "/opt/root/5.34",
			storage.EnvRunID:   rec.RunID,
			storage.EnvJobID:   id,
			storage.EnvWorkDir: rec.RunID,
		}
		if _, err := store.Put(JobsNS, id+"/env", []byte(env.Render())); err != nil {
			t.Fatal(err)
		}
		envs[id] = env
		rec.Jobs = append(rec.Jobs, JobRecord{JobID: id, RunID: rec.RunID, EnvKey: id + "/env"})
	}
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Put(RunsNS, rec.RunID, data); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadRun(store, rec.RunID)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range loaded.Jobs {
		env, err := LoadJobEnv(store, &j)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(env, envs[j.JobID]) {
			t.Fatalf("old record %s env = %v, want %v", j.JobID, env, envs[j.JobID])
		}
	}
}
