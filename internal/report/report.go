// Package report renders the sp-system's status pages, reproducing the
// paper's §3.3: "Script-based web pages are used to record and display
// available validation runs for a given description and indicate the
// status of the compilation for the individual packages or tests within
// table cells, which are linked to a corresponding output file."
//
// Two renderers are provided: a fixed-width text matrix (the form of
// Figure 3, suitable for terminals and logs) and HTML pages with linked
// cells, written onto the common storage under the "web" namespace —
// the modern equivalent of the paper's script-generated pages.
package report

import (
	"fmt"
	"html/template"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/bookkeep"
	"repro/internal/runner"
	"repro/internal/storage"
	"repro/internal/valtest"
)

// TextMatrix renders the Figure 3 status matrix: one row per
// (experiment, configuration, externals) cell with outcome counts and
// health.
func TextMatrix(cells []bookkeep.Cell) string {
	return TextMatrixNoted(cells, nil)
}

// TextMatrixNoted is TextMatrix with an extra per-cell NOTE column
// supplied by note — how `spsys campaign` and spd surface "skipped:
// up-to-date" cells after an incremental campaign. A nil note renders
// the plain matrix.
func TextMatrixNoted(cells []bookkeep.Cell, note func(bookkeep.Cell) string) string {
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	header := "EXPERIMENT\tCONFIGURATION\tEXTERNALS\tTESTS\tPASS\tFAIL\tSKIP\tERROR\tRUNS\tSTATUS"
	if note != nil {
		header += "\tNOTE"
	}
	fmt.Fprintln(tw, header)
	lastExp := ""
	for _, c := range cells {
		exp := c.Experiment
		if exp == lastExp {
			exp = ""
		} else {
			lastExp = exp
		}
		status := "OK"
		if !c.Healthy() {
			status = "ATTENTION"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%s",
			exp, c.Config, c.Externals, c.Total(), c.Pass, c.Fail, c.Skip, c.Error, c.Runs, status)
		if note != nil {
			fmt.Fprintf(tw, "\t%s", note(c))
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	return b.String()
}

// TextRun renders one run's job table.
func TextRun(rec *runner.RunRecord) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Run %s — %s\n", rec.RunID, rec.Description)
	fmt.Fprintf(&b, "experiment=%s config=%s externals=%s revision=%d time=%s\n",
		rec.Experiment, rec.Config, rec.Externals, rec.RepoRevision,
		time.Unix(rec.Timestamp, 0).UTC().Format(time.RFC3339))
	counts := rec.Counts()
	fmt.Fprintf(&b, "jobs=%d pass=%d fail=%d skip=%d error=%d wall=%v serial=%v\n\n",
		len(rec.Jobs), counts[valtest.OutcomePass], counts[valtest.OutcomeFail],
		counts[valtest.OutcomeSkip], counts[valtest.OutcomeError], rec.WallCost, rec.SerialCost)

	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "JOB\tTEST\tCATEGORY\tOUTCOME\tDETAIL")
	for _, j := range rec.Jobs {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\n",
			j.JobID, j.Result.Test, j.Result.Category, j.Result.Outcome, j.Result.Detail)
	}
	tw.Flush()
	return b.String()
}

// TextScrubHistory renders the archive's integrity-scrub verdicts,
// newest first: one line per recorded scrub run with its page/outcome
// counts. This is the operator's bit-rot ledger — a FAILED line names a
// scrub run whose job table (TextRun) identifies the damaged blobs.
func TextScrubHistory(metas []*bookkeep.RunMeta) string {
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "RUN\tTIME\tPAGES\tPASS\tFAIL\tERROR\tVERDICT\tDESCRIPTION")
	for i := len(metas) - 1; i >= 0; i-- {
		m := metas[i]
		verdict := "clean"
		if !m.Passed {
			verdict = "FAILED"
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%d\t%s\t%s\n",
			m.RunID, time.Unix(m.Timestamp, 0).UTC().Format(time.RFC3339),
			m.Jobs, m.Pass, m.Fail, m.Error, verdict, m.Description)
	}
	tw.Flush()
	return b.String()
}

// TextDiff renders a diff with its attribution — the examination report
// the paper prescribes after a failed validation.
func TextDiff(d *bookkeep.Diff) string {
	var b strings.Builder
	attr := bookkeep.Classify(d)
	fmt.Fprintf(&b, "Diff %s -> %s\n", d.BaselineRun, d.CurrentRun)
	fmt.Fprintf(&b, "changed inputs: config=%t externals=%t experiment-sw=%t\n",
		d.ConfigChanged, d.ExternalsChanged, d.RevisionChanged)
	fmt.Fprintf(&b, "attribution: %s (intervention: %s)\n", attr, attr.Responsible())
	if len(d.Regressions) == 0 {
		b.WriteString("no regressions\n")
	}
	for _, r := range d.Regressions {
		fmt.Fprintf(&b, "REGRESSION %s: %v -> %v  %s\n", r.Test, r.Before, r.After, r.Detail)
	}
	for _, f := range d.Fixes {
		fmt.Fprintf(&b, "fixed      %s: %v -> %v\n", f.Test, f.Before, f.After)
	}
	for _, a := range d.Added {
		fmt.Fprintf(&b, "added      %s\n", a)
	}
	for _, r := range d.Removed {
		fmt.Fprintf(&b, "removed    %s\n", r)
	}
	return b.String()
}

var matrixTmpl = template.Must(template.New("matrix").Parse(`<!DOCTYPE html>
<html><head><title>{{.Title}}</title><style>
table { border-collapse: collapse; font-family: sans-serif; }
td, th { border: 1px solid #888; padding: 4px 8px; }
.ok { background: #9e9; } .bad { background: #e99; }
</style></head><body>
<h1>{{.Title}}</h1>
<p>{{.Runs}} validation runs recorded.</p>
<table>
<tr><th>Experiment</th><th>Configuration</th><th>Externals</th><th>Pass</th><th>Fail</th><th>Skip</th><th>Error</th><th>Latest run</th>{{if .HasNotes}}<th>Freshness</th>{{end}}</tr>
{{range .Cells}}<tr class="{{if .Healthy}}ok{{else}}bad{{end}}">
<td>{{.Experiment}}</td><td>{{.Config}}</td><td>{{.Externals}}</td>
<td>{{.Pass}}</td><td>{{.Fail}}</td><td>{{.Skip}}</td><td>{{.Error}}</td>
<td><a href="{{.Href}}">{{.RunID}}</a></td>{{if $.HasNotes}}<td>{{.Note}}</td>{{end}}
</tr>{{end}}
</table></body></html>
`))

var runTmpl = template.Must(template.New("run").Parse(`<!DOCTYPE html>
<html><head><title>{{.RunID}}</title><style>
table { border-collapse: collapse; font-family: sans-serif; }
td, th { border: 1px solid #888; padding: 4px 8px; }
.pass { background: #9e9; } .fail { background: #e99; } .skip { background: #eeb; } .error { background: #e9b; }
</style></head><body>
<h1>Run {{.RunID}}</h1>
<p>{{.Description}} — experiment {{.Experiment}}, {{.Config}}, {{.Externals}}, software revision {{.RepoRevision}}</p>
<table>
<tr><th>Job</th><th>Test</th><th>Category</th><th>Outcome</th><th>Detail</th><th>Output</th></tr>
{{range .Jobs}}<tr class="{{.Result.Outcome}}">
<td>{{.JobID}}</td><td>{{.Result.Test}}</td><td>{{.Result.Category}}</td>
<td>{{.Result.Outcome}}</td><td>{{.Result.Detail}}</td>
<td>{{if .OutputHref}}<a href="{{.OutputHref}}">output</a>{{end}}</td>
</tr>{{end}}
</table></body></html>
`))

// matrixRow is one matrix table row: the cell plus the link target of
// its latest-run column, so the same template serves both the static
// site (relative "run-0001.html" pages) and spserve ("/runs/run-0001"),
// and an optional freshness note.
type matrixRow struct {
	bookkeep.Cell
	Href string
	Note string
}

// HTMLMatrixLinked renders the status matrix page with runHref
// supplying each cell's latest-run link target.
func HTMLMatrixLinked(title string, cells []bookkeep.Cell, totalRuns int, runHref func(runID string) string) (string, error) {
	return HTMLMatrixNoted(title, cells, totalRuns, runHref, nil)
}

// HTMLMatrixNoted is HTMLMatrixLinked with a per-cell freshness column
// supplied by note — how spserve surfaces the cells the producer's last
// plan skipped as up-to-date. A nil note omits the column.
func HTMLMatrixNoted(title string, cells []bookkeep.Cell, totalRuns int, runHref func(runID string) string, note func(bookkeep.Cell) string) (string, error) {
	rows := make([]matrixRow, len(cells))
	for i, c := range cells {
		rows[i] = matrixRow{Cell: c, Href: runHref(c.RunID)}
		if note != nil {
			rows[i].Note = note(c)
		}
	}
	var b strings.Builder
	err := matrixTmpl.Execute(&b, struct {
		Title    string
		Runs     int
		HasNotes bool
		Cells    []matrixRow
	}{title, totalRuns, note != nil, rows})
	if err != nil {
		return "", fmt.Errorf("report: %w", err)
	}
	return b.String(), nil
}

// HTMLMatrix renders the status matrix page for the static site, where
// run pages sit next to the index.
func HTMLMatrix(title string, cells []bookkeep.Cell, totalRuns int) (string, error) {
	return HTMLMatrixLinked(title, cells, totalRuns, func(runID string) string { return runID + ".html" })
}

// runRow is one job table row: the job record plus its output link
// target ("" for no link).
type runRow struct {
	runner.JobRecord
	OutputHref string
}

// HTMLRunLinked renders one run's page with outputHref supplying each
// job's output link target from its storage key ("" suppresses the
// link).
func HTMLRunLinked(rec *runner.RunRecord, outputHref func(outputKey string) string) (string, error) {
	rows := make([]runRow, len(rec.Jobs))
	for i, j := range rec.Jobs {
		rows[i] = runRow{JobRecord: j}
		if j.Result.OutputKey != "" {
			rows[i].OutputHref = outputHref(j.Result.OutputKey)
		}
	}
	var b strings.Builder
	err := runTmpl.Execute(&b, struct {
		*runner.RunRecord
		Jobs []runRow
	}{rec, rows})
	if err != nil {
		return "", fmt.Errorf("report: %w", err)
	}
	return b.String(), nil
}

// HTMLRun renders one run's page for the static site, with cells linked
// to output blobs under the relative blob/ prefix.
func HTMLRun(rec *runner.RunRecord) (string, error) {
	return HTMLRunLinked(rec, func(key string) string { return "blob/" + key })
}

// WebNS is the storage namespace the generated site is written to.
const WebNS = "web"

// siteFormatNS/siteFormatKey name the marker binding recording which
// site format (template revision) the stored pages were rendered with.
// It lives outside WebNS so the web namespace holds exactly the pages.
const (
	siteFormatNS  = "meta"
	siteFormatKey = "site_format"
	// siteFormat identifies the current page templates. Bump it when a
	// template changes so PublishSiteIndexed re-renders pages it would
	// otherwise skip as already stored (run records are immutable, so a
	// stored page only goes stale when the rendering itself changes).
	siteFormat = "1"
)

// SiteFormat returns the current site format marker. Besides gating
// PublishSiteIndexed's re-renders, it is folded into the status
// service's response validators (internal/serve), so bumping the
// templates invalidates both the stored site and every client-held
// ETag at once.
func SiteFormat() string { return siteFormat }

// RenderSite renders the whole static site — index.html plus one page
// per run — from the index, loading each full record from storage on
// demand (the index holds only metas). The map is keyed by page name.
// This materializes every page at once; it backs the batch exporter
// (spreport -out). The incremental publisher below renders only what
// the store does not already hold.
func RenderSite(x *bookkeep.Index, title string) (map[string][]byte, error) {
	pages := make(map[string][]byte)
	index, err := HTMLMatrix(title, x.Matrix(), x.TotalRuns())
	if err != nil {
		return nil, err
	}
	pages["index.html"] = []byte(index)
	for _, m := range x.Runs() {
		rec, err := x.Run(m.RunID)
		if err != nil {
			return nil, err
		}
		page, err := HTMLRun(rec)
		if err != nil {
			return nil, err
		}
		pages[rec.RunID+".html"] = []byte(page)
	}
	return pages, nil
}

// PublishStats summarizes one PublishSiteIndexed pass.
type PublishStats struct {
	// Pages is the number of pages the site comprises.
	Pages int
	// Written is how many were stored because their content changed (or
	// was new); Skipped counts pages whose stored content was already
	// identical. Republishing after each run of a long campaign is
	// therefore incremental: old runs' pages hash-match and are skipped.
	Written, Skipped int
}

// PublishSiteIndexed regenerates the site from the (already refreshed)
// index onto the common storage, doing O(what changed) work:
//
//   - A run page already bound in WebNS is skipped without loading the
//     record or rendering anything — run records are immutable, so a
//     stored page can only go stale if the templates change, which the
//     site-format marker detects (then everything re-renders once, with
//     hash-skip writes).
//   - A missing run page loads its record on demand and renders it.
//   - The index page is always re-rendered (it summarizes the whole
//     matrix) but only written when its content hash changed.
//
// No step materializes the full run list or all pages in memory, so a
// republish over a million-run archive costs the index page plus the
// new runs.
func PublishSiteIndexed(store *storage.Store, x *bookkeep.Index, title string) (PublishStats, error) {
	var stats PublishStats
	storedFormat, _ := store.Get(siteFormatNS, siteFormatKey)
	rerenderAll := string(storedFormat) != siteFormat

	publish := func(name string, content []byte) error {
		if prior, err := store.Hash(WebNS, name); err == nil && prior == storage.HashBytes(content) {
			stats.Skipped++
			return nil
		}
		if _, err := store.Put(WebNS, name, content); err != nil {
			return err
		}
		stats.Written++
		return nil
	}

	index, err := HTMLMatrix(title, x.Matrix(), x.TotalRuns())
	if err != nil {
		return stats, err
	}
	stats.Pages++
	if err := publish("index.html", []byte(index)); err != nil {
		return stats, err
	}

	const pageSize = 512
	for after, done := "", false; !done; {
		metas, next := x.RunsPage(after, pageSize)
		for _, m := range metas {
			stats.Pages++
			name := m.RunID + ".html"
			if !rerenderAll && store.Exists(WebNS, name) {
				stats.Skipped++
				continue
			}
			rec, err := x.Run(m.RunID)
			if err != nil {
				return stats, err
			}
			page, err := HTMLRun(rec)
			if err != nil {
				return stats, err
			}
			if err := publish(name, []byte(page)); err != nil {
				return stats, err
			}
		}
		after, done = next, next == ""
	}
	if rerenderAll {
		if _, err := store.Put(siteFormatNS, siteFormatKey, []byte(siteFormat)); err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// TextRunsByDescription renders the paper's "available validation runs
// for a given description" view: runs grouped by their description tag,
// in execution order within each group.
func TextRunsByDescription(x *bookkeep.Index) string {
	groups := make(map[string][]*bookkeep.RunMeta)
	var order []string
	for _, m := range x.Runs() {
		if _, seen := groups[m.Description]; !seen {
			order = append(order, m.Description)
		}
		groups[m.Description] = append(groups[m.Description], m)
	}
	var b strings.Builder
	for _, desc := range order {
		fmt.Fprintf(&b, "%q (%d runs)\n", desc, len(groups[desc]))
		tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
		for _, m := range groups[desc] {
			status := "OK"
			if !m.Passed {
				status = "FAILED"
			}
			fmt.Fprintf(tw, "  %s\t%s\t%s\t%s\tpass=%d fail=%d\t%s\n",
				m.RunID, m.Experiment, m.Config, m.Externals, m.Pass, m.Fail, status)
		}
		tw.Flush()
	}
	return b.String()
}

// ExperimentSummary is a compact per-experiment rollup used by the CLI.
type ExperimentSummary struct {
	Experiment string
	Cells      int
	Healthy    int
	TotalRuns  int
}

// Summarize rolls the matrix up per experiment.
func Summarize(cells []bookkeep.Cell) []ExperimentSummary {
	byExp := make(map[string]*ExperimentSummary)
	for _, c := range cells {
		s, ok := byExp[c.Experiment]
		if !ok {
			s = &ExperimentSummary{Experiment: c.Experiment}
			byExp[c.Experiment] = s
		}
		s.Cells++
		if c.Healthy() {
			s.Healthy++
		}
		s.TotalRuns += c.Runs
	}
	out := make([]ExperimentSummary, 0, len(byExp))
	for _, s := range byExp {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Experiment < out[j].Experiment })
	return out
}
