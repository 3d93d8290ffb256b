package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/workloads"
)

// TestGateBounds pins every ratio gate's rows and bound at 1, 2-3 and >=4
// procs, and the allocation gate's row and baseline file.
func TestGateBounds(t *testing.T) {
	type pinned struct {
		num, den        string
		at1, at23, at4p float64
	}
	want := map[string][]pinned{
		"hotpath":   {{"BenchmarkHotPathWriteParallel", "BenchmarkHotPathWrite", 1.00, 0.90, 0.75}},
		"recovery":  {{"BenchmarkRecover/parallel/lanes=16/blobs=32", "BenchmarkRecover/serial/lanes=16/blobs=32", 1.15, 0.90, 0.75}},
		"faults":    {{"BenchmarkFaultWrite/degraded/virtual", "BenchmarkFaultWrite/healthy/virtual", 1.25, 1.25, 1.25}},
		"frontends": {{"BenchmarkFrontendRename/fastpath/virtual", "BenchmarkFrontendRename/copy/virtual", 0.95, 0.95, 0.95}},
		"rebalance": {
			{"BenchmarkRebalanceForeground/join/virtual", "BenchmarkRebalanceForeground/quiesced/virtual", 4, 4, 4},
			{"BenchmarkRebalanceForeground/leave/virtual", "BenchmarkRebalanceForeground/quiesced/virtual", 4, 4, 4},
		},
	}
	for _, e := range Experiments {
		var got []pinned
		for _, g := range e.Gates {
			switch g := g.(type) {
			case ratio:
				b := g.bound
				if b.at(3) != b.at(2) || b.at(64) != b.at(4) {
					t.Errorf("%s: bound %v is not constant over 2-3 and >=4 procs", e.Name, b)
				}
				got = append(got, pinned{g.num, g.den, b.at(1), b.at(2), b.at(4)})
			case allocBaseline:
				if g != (allocBaseline{"BenchmarkHotPathWrite", "BENCH_hotpath.json"}) || e.Name != "hotpath" {
					t.Errorf("%s: allocation gate %+v", e.Name, g)
				}
			}
		}
		if !reflect.DeepEqual(got, want[e.Name]) {
			t.Errorf("%s ratio gates:\n got %v\nwant %v", e.Name, got, want[e.Name])
		}
		delete(want, e.Name)
	}
	if len(want) != 0 {
		t.Errorf("experiments missing from the table: %v", want)
	}
}

func writeBaseline(t *testing.T, path string, rows Rows) {
	t.Helper()
	raw, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGates checks every gate of the table: a pass exactly at its bound, a
// failure just over it, and a failure when a row it names is missing.
func TestGates(t *testing.T) {
	claims := map[string]struct{ holds, fails Result }{
		"table1": {
			&TableIResult{Rows: []TableIRow{{Profile: "Write-intensive", PaperProfile: "Write-intensive"}}},
			&TableIResult{Rows: []TableIRow{{Profile: "Read-intensive", PaperProfile: "Write-intensive"}}},
		},
		"table2": {
			&TableIIResult{Mkdir: 43, Rmdir: 43, OpendirInput: 5},
			&TableIIResult{Mkdir: 43, Rmdir: 43, OpendirInput: 5, OpendirOther: 1},
		},
		"mapping": {
			&MappingResult{Rows: []MappingRow{{RunsOnBlobs: true, DirectPercent: 98}}},
			&MappingResult{Rows: []MappingRow{{RunsOnBlobs: true, DirectPercent: 97.9}}},
		},
		"futurework": {
			&FutureWorkResult{Metadata: []MetaRow{{Speedup: 1.5}, {Speedup: 2}}, SharedWrite: []WriteRow{{Speedup: 1.1}}},
			&FutureWorkResult{Metadata: []MetaRow{{Speedup: 2}, {Speedup: 1.5}}, SharedWrite: []WriteRow{{Speedup: 1.1}}},
		},
	}
	for _, e := range Experiments {
		for i, g := range e.Gates {
			t.Run(fmt.Sprintf("%s/%d", e.Name, i), func(t *testing.T) {
				gate := g
				check := func(what string, res Result, pass bool) {
					t.Helper()
					if err := gate.Check(res); (err == nil) != pass {
						t.Errorf("%s: %s: Check = %v, want pass=%v", gate, what, err, pass)
					}
				}
				switch g := g.(type) {
				case ratio:
					at := int64(math.Round(g.bound.at(runtime.GOMAXPROCS(0)) * 1e6))
					rows := func(num int64) Rows { return Rows{{Name: g.num, NsPerOp: num}, {Name: g.den, NsPerOp: 1e6}} }
					check("at the bound", rows(at), true)
					check("just over the bound", rows(at+1), false)
					check("numerator row missing", rows(at)[1:], false)
					check("denominator row missing", rows(at)[:1], false)
				case allocBaseline:
					g.path = filepath.Join(t.TempDir(), "BENCH_hotpath.json")
					gate = g
					run := func(bytes, allocs int64) Rows {
						return Rows{{Name: g.row, BytesPerOp: bytes, AllocsPerOp: allocs}}
					}
					// Noise floor max(old/8, 64) bytes and max(old/8, 2) allocs.
					writeBaseline(t, g.path, Rows{{Name: g.row, BytesPerOp: 800, AllocsPerOp: 24}})
					check("at the bound", run(900, 27), true)
					check("bytes over the bound", run(901, 27), false)
					check("allocs over the bound", run(900, 28), false)
					check("row missing", Rows{{Name: "other"}}, false)
					writeBaseline(t, g.path, Rows{{Name: g.row}})
					check("at the floor", run(64, 2), true)
					check("bytes over the floor", run(65, 0), false)
					check("allocs over the floor", run(0, 3), false)
					writeBaseline(t, g.path, Rows{{Name: "other"}})
					check("row absent from the baseline", run(1<<20, 1<<10), true)
					if err := os.WriteFile(g.path, []byte("not json"), 0o644); err != nil {
						t.Fatal(err)
					}
					check("unparsable baseline", run(0, 0), false)
					gate = allocBaseline{g.row, filepath.Join(t.TempDir(), "missing.json")}
					check("missing baseline", run(0, 0), false)
				default:
					c, ok := claims[e.Name]
					if !ok {
						t.Fatalf("no claim case for %s", e.Name)
					}
					check("claim holds", c.holds, true)
					check("claim fails", c.fails, false)
					check("result of another experiment", Rows{}, false)
				}
			})
		}
	}
}

// TestGateRowsCommitted requires every row a gate names to be a row of the
// experiment's committed BENCH file, so renaming a row cannot leave a gate
// that fails on every run.
func TestGateRowsCommitted(t *testing.T) {
	for _, e := range Experiments {
		if e.Paper {
			continue
		}
		raw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_"+e.Name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var committed Rows
		if err := json.Unmarshal(raw, &committed); err != nil {
			t.Fatal(err)
		}
		for _, g := range e.Gates {
			var names []string
			switch g := g.(type) {
			case ratio:
				names = []string{g.num, g.den}
			case allocBaseline:
				names = []string{g.row}
			}
			for _, name := range names {
				if _, err := committed.find(name); err != nil {
					t.Errorf("%s: gate %s: %v", e.Name, g, err)
				}
			}
		}
	}
}

// TestGatedVirtualRowsRepeat runs every /virtual row a gate reads twice and
// requires the same value: a gate on a row that varies between runs would
// pass or fail by chance.
func TestGatedVirtualRowsRepeat(t *testing.T) {
	rebalance := func(pick int) func() (time.Duration, error) {
		return func() (time.Duration, error) {
			q, j, l, err := VirtualRebalanceP99()
			return []time.Duration{q, j, l}[pick], err
		}
	}
	rows := map[string]func() (time.Duration, error){
		"BenchmarkFaultWrite/healthy/virtual":           func() (time.Duration, error) { return VirtualWriteCost(false, virtualOps) },
		"BenchmarkFaultWrite/degraded/virtual":          func() (time.Duration, error) { return VirtualWriteCost(true, virtualOps) },
		"BenchmarkFrontendRename/fastpath/virtual":      func() (time.Duration, error) { return VirtualRenameCost(true, virtualOps) },
		"BenchmarkFrontendRename/copy/virtual":          func() (time.Duration, error) { return VirtualRenameCost(false, virtualOps) },
		"BenchmarkRebalanceForeground/quiesced/virtual": rebalance(0),
		"BenchmarkRebalanceForeground/join/virtual":     rebalance(1),
		"BenchmarkRebalanceForeground/leave/virtual":    rebalance(2),
	}
	seen := map[string]bool{}
	for _, e := range Experiments {
		for _, g := range e.Gates {
			r, ok := g.(ratio)
			if !ok {
				continue
			}
			for _, name := range []string{r.num, r.den} {
				if !strings.HasSuffix(name, "/virtual") || seen[name] {
					continue
				}
				seen[name] = true
				produce, ok := rows[name]
				if !ok {
					t.Errorf("gated row %s has no repeatability check", name)
					continue
				}
				first, err := produce()
				if err != nil {
					t.Fatal(err)
				}
				second, err := produce()
				if err != nil {
					t.Fatal(err)
				}
				if first != second {
					t.Errorf("%s: %v then %v", name, first, second)
				}
			}
		}
	}
}

// TestExecuteWritesAfterGates checks the runner: a failing gate leaves the
// BENCH file alone; passing gates write it as indented JSON plus a newline.
func TestExecuteWritesAfterGates(t *testing.T) {
	dir := t.TempDir()
	rows := Rows{{Name: "a", NsPerOp: 2}, {Name: "b", NsPerOp: 1}}
	e := Experiment{
		Name:  "x",
		Run:   func(workloads.Config) (Result, error) { return rows, nil },
		Gates: []Gate{ratio{"a", "b", fixed(1.5)}},
	}
	path := filepath.Join(dir, "BENCH_x.json")
	if err := e.Execute(io.Discard, workloads.Config{}, dir); err == nil {
		t.Fatal("gate over its bound passed")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("failing run wrote %s (stat: %v)", path, err)
	}
	e.Gates = []Gate{ratio{"a", "b", fixed(2)}}
	if err := e.Execute(io.Discard, workloads.Config{}, dir); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.MarshalIndent(rows, "", "  ")
	if string(got) != string(want)+"\n" {
		t.Fatalf("wrote %q, want %q", got, want)
	}
}
