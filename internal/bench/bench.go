// Package bench is the experiment harness. Experiments is its one table:
// the paper's tables and figures, each a structured result with a Render
// method that prints the rows/series the paper reports, and the benchmark
// experiments behind the committed BENCH_<name>.json files, each with the
// gates its result must pass. cmd/benchsuite and the bench_test.go targets
// are thin wrappers over this package.
package bench

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// humanBytes renders byte counts in the paper's GB/MB style.
func humanBytes(b int64) string {
	switch {
	case b >= 1e9:
		return fmt.Sprintf("%.1f GB", float64(b)/1e9)
	case b >= 1e6:
		return fmt.Sprintf("%.1f MB", float64(b)/1e6)
	case b >= 1e3:
		return fmt.Sprintf("%.1f KB", float64(b)/1e3)
	default:
		return fmt.Sprintf("%d B", b)
	}
}

// humanRatio renders R/W ratios the way Table I prints them.
func humanRatio(r float64) string {
	switch {
	case math.IsInf(r, 1):
		return "inf"
	case r >= 1000 || (r > 0 && r < 0.01):
		return fmt.Sprintf("%.1e", r)
	default:
		return fmt.Sprintf("%.2f", r)
	}
}

// TableIRow is one measured row of the reproduced Table I.
type TableIRow struct {
	Platform     string
	App          string
	Usage        string
	ReadBytes    int64
	WriteBytes   int64
	Ratio        float64
	Profile      string
	PaperProfile string
}

// TableIResult is the full reproduced Table I.
type TableIResult struct {
	Factor int64
	Rows   []TableIRow
}

// Render prints the table in the paper's column order, with the paper's
// profile label for comparison.
func (t *TableIResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "TABLE I. APPLICATION SUMMARY (volumes scaled 1:%d)\n", t.Factor)
	fmt.Fprintf(&b, "%-14s %-10s %-22s %12s %12s %10s  %-16s %-16s\n",
		"Platform", "App", "Usage", "Total reads", "Total writes", "R/W", "Profile", "Paper profile")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-14s %-10s %-22s %12s %12s %10s  %-16s %-16s\n",
			r.Platform, r.App, r.Usage,
			humanBytes(r.ReadBytes), humanBytes(r.WriteBytes),
			humanRatio(r.Ratio), r.Profile, r.PaperProfile)
	}
	return b.String()
}

// Matches reports whether every measured profile equals the paper's label.
func (t *TableIResult) Matches() bool {
	for _, r := range t.Rows {
		if r.Profile != r.PaperProfile {
			return false
		}
	}
	return true
}

// FigureBar is one application's call-type distribution.
type FigureBar struct {
	App        string
	TotalCalls int64
	// Percent is indexed by storage.CallKind.
	Percent [storage.NumCallKinds]float64
}

// FigureResult is a reproduced Figure 1 or Figure 2.
type FigureResult struct {
	Title string
	Bars  []FigureBar
}

// Render prints per-application percentage rows plus an ASCII stacked bar.
func (f *FigureResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", f.Title)
	fmt.Fprintf(&b, "%-12s %10s %10s %10s %10s %10s  %s\n",
		"App", "calls", "read%", "write%", "dir%", "other%", "distribution")
	glyphs := [storage.NumCallKinds]byte{'R', 'W', 'D', 'o'}
	for _, bar := range f.Bars {
		fmt.Fprintf(&b, "%-12s %10d %10.2f %10.2f %10.2f %10.2f  ",
			bar.App, bar.TotalCalls,
			bar.Percent[storage.CallFileRead], bar.Percent[storage.CallFileWrite],
			bar.Percent[storage.CallDirOp], bar.Percent[storage.CallOther])
		const width = 40
		drawn := 0
		for k := 0; k < storage.NumCallKinds; k++ {
			n := int(bar.Percent[k] / 100 * width)
			// Guarantee visibility of non-zero slivers, as the paper's
			// figures do.
			if n == 0 && bar.Percent[k] > 0 {
				n = 1
			}
			for i := 0; i < n && drawn < width+4; i++ {
				b.WriteByte(glyphs[k])
				drawn++
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// barFromCensus converts a census into a figure bar.
func barFromCensus(app string, c *trace.Census) FigureBar {
	bar := FigureBar{App: app, TotalCalls: c.TotalCalls()}
	for k := 0; k < storage.NumCallKinds; k++ {
		bar.Percent[k] = c.Percent(storage.CallKind(k))
	}
	return bar
}

// TableIIResult is the reproduced Table II.
type TableIIResult struct {
	Mkdir        int64
	Rmdir        int64
	OpendirInput int64
	OpendirOther int64
}

// Render prints the paper's four-row breakdown.
func (t *TableIIResult) Render() string {
	var b strings.Builder
	b.WriteString("TABLE II. SPARK DIRECTORY OPERATION BREAKDOWN (all applications)\n")
	fmt.Fprintf(&b, "%-36s %-24s %10s\n", "Operation", "Action", "Count")
	fmt.Fprintf(&b, "%-36s %-24s %10d\n", "mkdir", "Create directory", t.Mkdir)
	fmt.Fprintf(&b, "%-36s %-24s %10d\n", "rmdir", "Remove directory", t.Rmdir)
	fmt.Fprintf(&b, "%-36s %-24s %10d\n", "opendir (Input data directory)", "Open / List directory", t.OpendirInput)
	fmt.Fprintf(&b, "%-36s %-24s %10d\n", "opendir (Other directories)", "Open / List directory", t.OpendirOther)
	return b.String()
}

// MatchesPaper reports whether the census equals the paper's 43/43/5/0.
func (t *TableIIResult) MatchesPaper() bool {
	return t.Mkdir == 43 && t.Rmdir == 43 && t.OpendirInput == 5 && t.OpendirOther == 0
}

// MappingRow is the per-application blob-mapping coverage (Section III/IV).
type MappingRow struct {
	App           string
	TotalCalls    int64
	DirectCalls   int64
	EmulatedCalls int64
	DirectPercent float64
	RunsOnBlobs   bool // the application completed against blobfs
}

// MappingResult is the coverage analysis over all nine applications.
type MappingResult struct {
	Rows []MappingRow
}

// Render prints the per-application mapping coverage.
func (m *MappingResult) Render() string {
	var b strings.Builder
	b.WriteString("BLOB PRIMITIVE MAPPING COVERAGE (all applications on blobfs)\n")
	fmt.Fprintf(&b, "%-12s %10s %10s %10s %10s %8s\n",
		"App", "calls", "direct", "emulated", "direct%", "runs")
	for _, r := range m.Rows {
		runs := "yes"
		if !r.RunsOnBlobs {
			runs = "NO"
		}
		fmt.Fprintf(&b, "%-12s %10d %10d %10d %10.2f %8s\n",
			r.App, r.TotalCalls, r.DirectCalls, r.EmulatedCalls, r.DirectPercent, runs)
	}
	return b.String()
}

// AllRunAndMostlyDirect reports the paper's claim: every application runs
// unmodified on blob storage and >98% of its calls map directly.
func (m *MappingResult) AllRunAndMostlyDirect() bool {
	for _, r := range m.Rows {
		if !r.RunsOnBlobs || r.DirectPercent < 98 {
			return false
		}
	}
	return true
}

// defaultConfig normalizes the workload configuration used by every
// experiment.
func defaultConfig(cfg workloads.Config) workloads.Config {
	return cfg.WithDefaults()
}
