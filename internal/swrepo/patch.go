package swrepo

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/platform"
)

// Patch is an intervention: a targeted source change that removes (and
// possibly introduces) traits in one source unit. In the paper's workflow
// a failed validation leads to problem identification and "intervention
// ... either by the host of the validation suite or the experiment
// themselves"; applying a Patch is that intervention. Every applied patch
// bumps the repository revision.
type Patch struct {
	// ID is a short unique label, e.g. "h1reco-64bit-fix".
	ID string
	// Package locates the package being changed. When Unit is empty the
	// patch is package-level and only ReplaceAPIs applies.
	Package string
	Unit    string
	// Remove lists traits the patch eliminates (e.g. TraitPtrIntCast
	// after porting pointer arithmetic to intptr_t).
	Remove []platform.Trait
	// Add lists traits the patch introduces (usually none; porting to
	// C++11 would add TraitCxx11).
	Add []platform.Trait
	// ReplaceAPIs maps old external API surfaces to their replacements,
	// e.g. "root/io/v5" -> "root/io/v6" when porting to ROOT 6.
	ReplaceAPIs map[string]string
	// Note records why, for the bookkeeping system.
	Note string
}

// Apply applies the patch to the repository, bumping its revision. It is
// an error if the target unit does not exist or if a removed trait is not
// present (the patch would be a no-op, which indicates a bookkeeping
// mistake).
func (r *Repository) Apply(p Patch) error {
	pkg, err := r.Get(p.Package)
	if err != nil {
		return fmt.Errorf("swrepo: patch %s: %w", p.ID, err)
	}
	if p.Unit == "" {
		if len(p.Remove) > 0 || len(p.Add) > 0 {
			return fmt.Errorf("swrepo: patch %s: trait changes require a unit", p.ID)
		}
		if len(p.ReplaceAPIs) == 0 {
			return fmt.Errorf("swrepo: patch %s changes nothing", p.ID)
		}
		replaced := false
		for i, api := range pkg.UsesAPIs {
			if neu, ok := p.ReplaceAPIs[api]; ok {
				pkg.UsesAPIs[i] = neu
				replaced = true
			}
		}
		if !replaced {
			return fmt.Errorf("swrepo: patch %s: package %q uses none of the replaced APIs", p.ID, p.Package)
		}
		r.Revision++
		r.logApplied(p)
		return nil
	}
	var unit *SourceUnit
	for _, u := range pkg.Units {
		if u.Name == p.Unit {
			unit = u
			break
		}
	}
	if unit == nil {
		return fmt.Errorf("swrepo: patch %s: no unit %q in package %q", p.ID, p.Unit, p.Package)
	}
	for _, t := range p.Remove {
		if !unit.HasTrait(t) {
			return fmt.Errorf("swrepo: patch %s: unit %s/%s does not have trait %v",
				p.ID, p.Package, p.Unit, t)
		}
	}
	filtered := unit.Traits[:0]
	for _, t := range unit.Traits {
		removed := false
		for _, rm := range p.Remove {
			if t == rm {
				removed = true
				break
			}
		}
		if !removed {
			filtered = append(filtered, t)
		}
	}
	unit.Traits = filtered
	for _, t := range p.Add {
		if !unit.HasTrait(t) {
			unit.Traits = append(unit.Traits, t)
		}
	}
	r.Revision++
	r.logApplied(p)
	return nil
}

// patchRun is one patch-log entry: a patch and how many times in a row
// it was applied.
type patchRun struct {
	patch Patch
	times int
}

// logApplied records p in the patch log. A patch identical to the one
// applied just before it extends that entry rather than adding a copy,
// so a revision moved by re-applying one patch N times logs one entry.
func (r *Repository) logApplied(p Patch) {
	if n := len(r.applied); n > 0 && samePatch(r.applied[n-1].patch, p) {
		r.applied[n-1].times++
		return
	}
	r.applied = append(r.applied, patchRun{patch: p, times: 1})
}

// samePatch reports whether two patches make the identical change.
func samePatch(a, b Patch) bool {
	return a.ID == b.ID && a.Package == b.Package && a.Unit == b.Unit && a.Note == b.Note &&
		slices.Equal(a.Remove, b.Remove) && slices.Equal(a.Add, b.Add) &&
		maps.Equal(a.ReplaceAPIs, b.ReplaceAPIs)
}

// AppliedPatches returns the patches applied so far, in order.
func (r *Repository) AppliedPatches() []Patch {
	n := 0
	for _, run := range r.applied {
		n += run.times
	}
	out := make([]Patch, 0, n)
	for _, run := range r.applied {
		for i := 0; i < run.times; i++ {
			out = append(out, run.patch)
		}
	}
	return out
}

// UnitsWithTrait returns (package, unit) pairs for every source unit in
// the repository exhibiting the trait, in package-name order. Migration
// planning uses this to enumerate intervention targets once validation has
// attributed a failure to a trait.
func (r *Repository) UnitsWithTrait(t platform.Trait) []UnitRef {
	var out []UnitRef
	for _, p := range r.Packages() {
		for _, u := range p.Units {
			if u.HasTrait(t) {
				out = append(out, UnitRef{Package: p.Name, Unit: u.Name})
			}
		}
	}
	return out
}

// UnitRef names a source unit within a repository.
type UnitRef struct {
	Package, Unit string
}

// String returns "package/unit".
func (u UnitRef) String() string { return u.Package + "/" + u.Unit }
