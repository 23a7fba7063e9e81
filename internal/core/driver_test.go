package core

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/platform"
	"repro/internal/storage"
	"repro/internal/valtest"
	"repro/internal/vmhost"
)

// TestVMHostDriverByteIdenticalVerdicts is the tentpole acceptance
// check: the same suite executed on the vmhost driver (image built,
// client booted, context rooted in the client) produces verdicts
// byte-identical to the in-process platform driver. Two fresh systems
// are compared — the simulated clock restarts at the same epoch and run
// counters both start at 1, so the full job tables must marshal to the
// same bytes.
func TestVMHostDriverByteIdenticalVerdicts(t *testing.T) {
	mk := func() *SPSystem {
		s := New()
		if err := s.RegisterExperiment(tinyDef("H1")); err != nil {
			t.Fatal(err)
		}
		return s
	}
	inproc := mk()
	hosted := mk()

	platRec, err := inproc.Validate("H1", sl6(), stdSet(t, inproc), "seam check")
	if err != nil {
		t.Fatal(err)
	}
	vmRec, err := hosted.ValidateDriver("vmhost", "H1", sl6(), stdSet(t, hosted), "seam check")
	if err != nil {
		t.Fatal(err)
	}

	platJobs, err := json.Marshal(platRec.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	vmJobs, err := json.Marshal(vmRec.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(platJobs, vmJobs) {
		t.Fatalf("verdicts diverge across drivers:\nplatform: %s\nvmhost:   %s", platJobs, vmJobs)
	}

	// The records differ only where they must: the driver stamp and the
	// digest it folds into.
	if platRec.Driver != "" {
		t.Fatalf("platform run recorded driver %q, want empty (record-shape compatibility)", platRec.Driver)
	}
	if vmRec.Driver != vmhost.DriverName {
		t.Fatalf("vmhost run recorded driver %q", vmRec.Driver)
	}
	if platRec.InputDigest == vmRec.InputDigest {
		t.Fatal("vmhost run digests identically to a platform run — a hosted green would satisfy platform cells")
	}

	// Provisioning left real machinery behind: one image, one client.
	if n := len(hosted.Host.Images()); n != 1 {
		t.Fatalf("vmhost run built %d images, want 1", n)
	}
	clients := hosted.Host.Clients()
	if len(clients) != 1 || clients[0].CronSpec == "" {
		t.Fatalf("vmhost run booted %v, want one cron-carrying client", clients)
	}

	// A second hosted validation reuses the image and client.
	if _, err := hosted.ValidateDriver("vmhost", "H1", sl6(), stdSet(t, hosted), "again"); err != nil {
		t.Fatal(err)
	}
	if len(hosted.Host.Images()) != 1 || len(hosted.Host.Clients()) != 1 {
		t.Fatalf("re-validation re-provisioned: %d images, %d clients",
			len(hosted.Host.Images()), len(hosted.Host.Clients()))
	}
}

// TestDriverDigestDefaultIdentity: the empty driver name and the
// explicit platform name digest identically — the seam's
// no-stale-cells guarantee at the core API level.
func TestDriverDigestDefaultIdentity(t *testing.T) {
	s := New()
	if err := s.RegisterExperiment(tinyDef("H1")); err != nil {
		t.Fatal(err)
	}
	exts := stdSet(t, s)
	base, err := s.CellDigest("H1", sl6(), exts)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"", valtest.DefaultDriverName} {
		d, err := s.CellDigestDriver("H1", sl6(), exts, name)
		if err != nil {
			t.Fatal(err)
		}
		if d != base {
			t.Fatalf("driver %q digest %s != CellDigest %s", name, d, base)
		}
	}
	vm, err := s.CellDigestDriver("H1", sl6(), exts, vmhost.DriverName)
	if err != nil {
		t.Fatal(err)
	}
	if vm == base {
		t.Fatal("vmhost cells digest identically to platform cells")
	}
}

// TestFaultDriverProvisionIsolated: a provisioning fault (unreachable
// externals repository) surfaces as a run error, records nothing, and
// leaves the system healthy for the next plain validation.
func TestFaultDriverProvisionIsolated(t *testing.T) {
	s := New()
	if err := s.RegisterExperiment(tinyDef("H1")); err != nil {
		t.Fatal(err)
	}
	inner, err := s.Driver("")
	if err != nil {
		t.Fatal(err)
	}
	flaky := &valtest.FaultDriver{Inner: inner, FlakyProvision: 1}
	s.RegisterDriver(flaky)

	_, err = s.ValidateDriver(flaky.Name(), "H1", sl6(), stdSet(t, s), "flaky")
	if err == nil || !strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("flaky provision error = %v, want injected unreachable fault", err)
	}
	if n := sysIndex(t, s).TotalRuns(); n != 0 {
		t.Fatalf("failed provisioning recorded %d runs, want 0", n)
	}
	rec, err := s.Validate("H1", sl6(), stdSet(t, s), "after fault")
	if err != nil || !rec.Passed() {
		t.Fatalf("system not healthy after injected fault: %v", err)
	}
}

// TestFaultDriverCorruptBlobCaughtByScrub: a driver returning corrupted
// blob bytes is detected by the scrub suite re-hashing what it reads,
// while the archive itself — and a scrub on the honest driver — stays
// green. The seam isolates the fault to the driver that injected it.
func TestFaultDriverCorruptBlobCaughtByScrub(t *testing.T) {
	s := New()
	victim, err := s.Store.Put("data", "precious", []byte("irreplaceable physics"))
	if err != nil {
		t.Fatal(err)
	}
	inner, derr := s.Driver("")
	if derr != nil {
		t.Fatal(derr)
	}
	s.RegisterDriver(&valtest.FaultDriver{Inner: inner, CorruptBlob: victim})

	bad, err := s.ScrubDriver("fault(platform)", 0, "scrub through corrupting driver")
	if err != nil {
		t.Fatal(err)
	}
	if bad.Passed() {
		t.Fatal("scrub through the corrupting driver passed")
	}
	found := false
	for _, j := range bad.Jobs {
		if j.Result.Outcome == valtest.OutcomeFail && strings.Contains(j.Result.Detail, victim[:12]) {
			found = true
		}
	}
	if !found {
		t.Fatalf("no failing page names the corrupted blob %s", victim[:12])
	}

	good, err := s.Scrub(0, "honest scrub")
	if err != nil {
		t.Fatal(err)
	}
	if !good.Passed() {
		t.Fatal("honest scrub failed: the fault leaked out of its driver")
	}
	if bad.InputDigest == good.InputDigest {
		t.Fatal("fault-injected scrub digests identically to an honest one")
	}
}

// TestRemoteScrubReadsTheArchive: a remote view caches the blobs it
// has verified, but a scrub over that view must certify the archive,
// not the view's memory. The view reads a blob, the blob is damaged on
// the primary's disk, and while the view's own read still answers from
// its cache, a scrub through it reports the damage.
func TestRemoteScrubReadsTheArchive(t *testing.T) {
	primary, err := storage.OpenWith(t.TempDir(), storage.Options{Sync: storage.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	victim, err := primary.Put("data", "precious", []byte("irreplaceable physics"))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(http.StripPrefix("/api/v1", storage.NewAPIHandler(primary, nil).EnableWrites("tok")))
	defer ts.Close()
	view, err := storage.OpenRemoteWith(ts.URL, storage.RemoteOptions{Token: "tok"})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := view.GetBlob(victim); err != nil || string(got) != "irreplaceable physics" {
		t.Fatalf("remote read before the damage = %q, %v", got, err)
	}
	if err := primary.Backend().(*storage.FSBackend).DamageBlob(victim, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := view.GetBlob(victim); err != nil {
		t.Fatalf("the view's second read went past its cache: %v", err)
	}

	rec, err := NewWith(view, platform.NewRegistry()).ScrubDriver("", 0, "remote scrub")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, j := range rec.Jobs {
		if j.Result.Outcome == valtest.OutcomeFail && strings.Contains(j.Result.Detail, victim[:12]) {
			found = true
		}
	}
	if rec.Passed() || !found {
		t.Fatalf("remote scrub passed=%v, failing page naming %s found=%v: it certified the view's cache",
			rec.Passed(), victim[:12], found)
	}
}

// TestFaultDriverSlowBuild: the latency fault inflates recorded costs
// without touching verdicts.
func TestFaultDriverSlowBuild(t *testing.T) {
	s := New()
	if err := s.RegisterExperiment(tinyDef("H1")); err != nil {
		t.Fatal(err)
	}
	inner, err := s.Driver("")
	if err != nil {
		t.Fatal(err)
	}
	slow := &valtest.FaultDriver{Inner: inner, SlowBuild: 2 * time.Hour}
	s.RegisterDriver(slow)
	rec, err := s.ValidateDriver(slow.Name(), "H1", sl6(), stdSet(t, s), "molasses")
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Passed() {
		t.Fatal("latency fault changed verdicts")
	}
	perJob := 2 * time.Hour
	if rec.SerialCost < time.Duration(len(rec.Jobs))*perJob {
		t.Fatalf("serial cost %v does not include the %v-per-job penalty over %d jobs",
			rec.SerialCost, perJob, len(rec.Jobs))
	}
}

// TestScrubViaSystem: the system-level scrub entry point records a
// first-class SCRUB run that the matrix then shows.
func TestScrubViaSystem(t *testing.T) {
	s := New()
	if _, err := s.Store.Put("data", "a", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	rec, err := s.Scrub(0, "unit scrub")
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Passed() {
		t.Fatal("clean scrub failed")
	}
	cells, err := s.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range cells {
		if c.Experiment == "SCRUB" {
			found = true
		}
	}
	if !found {
		t.Fatalf("SCRUB missing from matrix: %+v", cells)
	}
	if _, err := s.Driver("nonexistent"); err == nil {
		t.Fatal("unknown driver resolved")
	}
	if platform.ReferenceConfig().String() != rec.Config {
		t.Fatalf("scrub run config label %q", rec.Config)
	}
}
