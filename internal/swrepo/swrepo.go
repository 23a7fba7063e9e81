// Package swrepo models the experiment-specific software — the first of
// the paper's three separated inputs to the validation system.
//
// An experiment's software is a repository of packages (the paper's H1
// example counts "approximately 100 individual H1 software packages").
// Each package contains source units written in C, C++ or FORTRAN, uses
// API surfaces provided by external dependencies, and depends on other
// packages in the repository. Source units carry platform.Traits — the
// language idioms and portability hazards that determine how they fare on
// each computing environment, including the latent defects
// ("long-standing bugs") that only surface during migrations.
//
// The repository is versioned by an integer revision that increments with
// every applied Patch, so validation runs can record exactly which state
// of the software they exercised.
package swrepo

import (
	"fmt"
	"sort"

	"repro/internal/platform"
)

// Lang is the implementation language of a source unit.
type Lang int

const (
	// LangC is ANSI or pre-ANSI C.
	LangC Lang = iota
	// LangCxx is C++.
	LangCxx
	// LangFortran is FORTRAN 77, pervasive in HERA-era reconstruction
	// code.
	LangFortran
)

// String returns "c", "c++" or "fortran".
func (l Lang) String() string {
	switch l {
	case LangC:
		return "c"
	case LangCxx:
		return "c++"
	default:
		return "fortran"
	}
}

// SourceUnit is one compilable file in a package.
type SourceUnit struct {
	// Name is the file name within the package, e.g. "tracking.cc".
	Name string
	// Language selects the compiler frontend.
	Language Lang
	// Traits are the platform-relevant properties of the code; see
	// platform.Trait. The unit always implicitly has the base trait of
	// its language (ANSI C or C++98), listed explicitly for uniformity.
	Traits []platform.Trait
	// Lines is the synthetic size of the unit, which drives the
	// simulated compile cost.
	Lines int
}

// HasTrait reports whether the unit exhibits the trait.
func (u *SourceUnit) HasTrait(t platform.Trait) bool {
	for _, x := range u.Traits {
		if x == t {
			return true
		}
	}
	return false
}

// Package is a buildable unit of experiment software.
type Package struct {
	// Name identifies the package within its repository, e.g. "h1reco".
	Name string
	// Deps names the packages this one builds against; they must exist
	// in the same repository and the resulting graph must be acyclic.
	Deps []string
	// UsesAPIs lists external API surfaces the package links against,
	// e.g. "root/io/v5". Build fails if the image's external set does
	// not provide them.
	UsesAPIs []string
	// Units are the package's source files.
	Units []*SourceUnit
	// Kind classifies the package for reporting (library, generator,
	// simulation, reconstruction, analysis, tool).
	Kind PackageKind
}

// PackageKind classifies packages along the paper's Figure 2 taxonomy of
// the software chain.
type PackageKind int

const (
	// KindLibrary is shared infrastructure code.
	KindLibrary PackageKind = iota
	// KindGenerator is Monte-Carlo event generation.
	KindGenerator
	// KindSimulation is detector simulation.
	KindSimulation
	// KindReconstruction turns raw/simulated hits into physics objects.
	KindReconstruction
	// KindAnalysis is end-user physics analysis code.
	KindAnalysis
	// KindTool is auxiliary executables (file converters, skimmers).
	KindTool
)

var kindNames = [...]string{"library", "generator", "simulation", "reconstruction", "analysis", "tool"}

// String returns the kind's lower-case name.
func (k PackageKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// TotalLines sums the lines of all units in the package.
func (p *Package) TotalLines() int {
	n := 0
	for _, u := range p.Units {
		n += u.Lines
	}
	return n
}

// Traits returns the union of all unit traits, sorted, without duplicates.
func (p *Package) Traits() []platform.Trait {
	seen := make(map[platform.Trait]bool)
	for _, u := range p.Units {
		for _, t := range u.Traits {
			seen[t] = true
		}
	}
	out := make([]platform.Trait, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Repository is the versioned collection of an experiment's packages.
type Repository struct {
	// Experiment is the owning collaboration, e.g. "H1".
	Experiment string
	// Revision increments with every applied patch; builds and
	// validation runs record it.
	Revision int

	packages map[string]*Package
	applied  []patchRun // the patch log, in application order
}

// NewRepository returns an empty repository for the experiment at
// revision 1.
func NewRepository(experiment string) *Repository {
	return &Repository{
		Experiment: experiment,
		Revision:   1,
		packages:   make(map[string]*Package),
	}
}

// Add registers a package. It returns an error on duplicate names.
func (r *Repository) Add(p *Package) error {
	if _, dup := r.packages[p.Name]; dup {
		return fmt.Errorf("swrepo: duplicate package %q in %s repository", p.Name, r.Experiment)
	}
	r.packages[p.Name] = p
	return nil
}

// MustAdd is Add that panics on error, for static configuration.
func (r *Repository) MustAdd(p *Package) {
	if err := r.Add(p); err != nil {
		panic(err)
	}
}

// Get returns the named package.
func (r *Repository) Get(name string) (*Package, error) {
	p, ok := r.packages[name]
	if !ok {
		return nil, fmt.Errorf("swrepo: unknown package %q in %s repository", name, r.Experiment)
	}
	return p, nil
}

// Len returns the number of packages.
func (r *Repository) Len() int { return len(r.packages) }

// Packages returns all packages sorted by name.
func (r *Repository) Packages() []*Package {
	out := make([]*Package, 0, len(r.packages))
	for _, p := range r.packages {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Validate checks referential integrity: every declared dependency must
// exist and the dependency graph must be acyclic.
func (r *Repository) Validate() error {
	for _, p := range r.Packages() {
		for _, d := range p.Deps {
			if _, ok := r.packages[d]; !ok {
				return fmt.Errorf("swrepo: package %q depends on unknown package %q", p.Name, d)
			}
		}
	}
	_, err := r.BuildOrder()
	return err
}

// BuildOrder returns the packages in a deterministic topological order
// (dependencies before dependents, ties broken by name), or an error
// naming a package on a dependency cycle.
func (r *Repository) BuildOrder() ([]*Package, error) {
	indeg := make(map[string]int, len(r.packages))
	dependents := make(map[string][]string, len(r.packages))
	for _, p := range r.packages {
		if _, ok := indeg[p.Name]; !ok {
			indeg[p.Name] = 0
		}
		for _, d := range p.Deps {
			indeg[p.Name]++
			dependents[d] = append(dependents[d], p.Name)
		}
	}

	var ready []string
	for name, n := range indeg {
		if n == 0 {
			ready = append(ready, name)
		}
	}
	sort.Strings(ready)

	out := make([]*Package, 0, len(r.packages))
	for len(ready) > 0 {
		name := ready[0]
		ready = ready[1:]
		out = append(out, r.packages[name])
		newly := make([]string, 0, len(dependents[name]))
		for _, dep := range dependents[name] {
			indeg[dep]--
			if indeg[dep] == 0 {
				newly = append(newly, dep)
			}
		}
		sort.Strings(newly)
		ready = mergeSorted(ready, newly)
	}
	if len(out) != len(r.packages) {
		for name, n := range indeg {
			if n > 0 {
				return nil, fmt.Errorf("swrepo: dependency cycle involving package %q", name)
			}
		}
	}
	return out, nil
}

// mergeSorted merges two sorted string slices into one sorted slice.
func mergeSorted(a, b []string) []string {
	out := make([]string, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// Dependents returns the names of packages that directly depend on the
// named package, sorted.
func (r *Repository) Dependents(name string) []string {
	var out []string
	for _, p := range r.packages {
		for _, d := range p.Deps {
			if d == name {
				out = append(out, p.Name)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

// TransitiveDeps returns the names of all packages the named package
// depends on, directly or indirectly, sorted.
func (r *Repository) TransitiveDeps(name string) ([]string, error) {
	root, err := r.Get(name)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	var walk func(p *Package) error
	walk = func(p *Package) error {
		for _, d := range p.Deps {
			if seen[d] {
				continue
			}
			seen[d] = true
			dp, err := r.Get(d)
			if err != nil {
				return err
			}
			if err := walk(dp); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(root); err != nil {
		return nil, err
	}
	out := make([]string, 0, len(seen))
	for d := range seen {
		out = append(out, d)
	}
	sort.Strings(out)
	return out, nil
}
