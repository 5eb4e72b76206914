package experiments

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"gmeansmr/internal/vec"
)

// smallOpts runs experiments at a fraction of the default sizes so the
// whole registry stays test-suite friendly.
func smallOpts(buf *bytes.Buffer, scale float64) Options {
	return Options{Out: buf, Scale: scale, Seed: 1}
}

func TestRegistryComplete(t *testing.T) {
	names := Names()
	if len(names) != 9 {
		t.Fatalf("expected 9 experiments (4 tables/figures pairs + scaling), got %d", len(names))
	}
	for _, n := range names {
		if Registry[n] == nil {
			t.Errorf("experiment %s missing from registry", n)
		}
	}
	// Every registry entry must be listed.
	if len(Registry) != len(names) {
		t.Errorf("registry has %d entries, names %d", len(Registry), len(names))
	}
}

func TestFig1Report(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig1(smallOpts(&buf, 0.3)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Figure 1", "Iteration 1", "Final", "X"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig1 output missing %q", want)
		}
	}
}

// TestFig2ReportAndFrontier: the reducer receives every projection of a
// cluster up to the test's sample size, and about that many — not n —
// beyond it.
func TestFig2ReportAndFrontier(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig2(smallOpts(&buf, 0.15)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	const sample = 4096
	rows := 0
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) != 3 {
			continue
		}
		n, err1 := strconv.Atoi(f[0])
		got, err2 := strconv.Atoi(f[1])
		if err1 != nil || err2 != nil {
			continue
		}
		rows++
		switch {
		case n <= sample && got != n:
			t.Errorf("n=%d: %d projections reach the reducer, want all of them", n, got)
		case n >= 4*sample && math.Abs(float64(got-sample)) > 5*math.Sqrt(sample):
			t.Errorf("n=%d: %d projections reach the reducer, want %d ± %.0f", n, got, sample, 5*math.Sqrt(sample))
		}
	}
	if rows != 6 {
		t.Errorf("fig2 printed %d rows, want 6:\n%s", rows, out)
	}
}

func TestTable1Report(t *testing.T) {
	var buf bytes.Buffer
	if err := Table1(smallOpts(&buf, 0.5)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, "d16") {
		t.Errorf("table1 output malformed:\n%s", out)
	}
}

func TestTable4ComparableRuns(t *testing.T) {
	var buf bytes.Buffer
	if err := Table4(smallOpts(&buf, 0.15)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// The three node counts must execute the identical algorithm: same k,
	// same iterations on every row.
	var ks []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "T4") || strings.HasPrefix(line, "T8") || strings.HasPrefix(line, "T12") {
			fields := strings.Fields(line)
			if len(fields) >= 6 {
				ks = append(ks, fields[4]+"/"+fields[5])
			}
		}
	}
	if len(ks) != 3 {
		t.Fatalf("expected 3 scaling rows, got %d:\n%s", len(ks), out)
	}
	if ks[0] != ks[1] || ks[1] != ks[2] {
		t.Errorf("node-scaling runs diverged: %v", ks)
	}
}

func TestCSVOutput(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	opts := Options{Out: &buf, Scale: 0.3, Seed: 1, CSVDir: dir}
	if err := Fig1(opts); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig1_centers.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if lines[0] != "iteration,x,y" {
		t.Errorf("csv header = %q", lines[0])
	}
	if len(lines) < 3 {
		t.Errorf("csv has only %d lines", len(lines))
	}
}

func TestTableRendering(t *testing.T) {
	out := table([]string{"a", "long-header"}, [][]string{{"1", "2"}, {"wide-cell", "3"}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d:\n%s", len(lines), out)
	}
	// All rows align to the same width.
	if len(lines[0]) != len(lines[2]) {
		t.Errorf("misaligned table:\n%s", out)
	}
}

func TestAsciiScatterMarksCenters(t *testing.T) {
	pts := []vec.Vector{{0, 0}, {10, 10}, {5, 5}}
	centers := []vec.Vector{{5, 5}}
	out := asciiScatter(pts, centers, 20, 10, 0)
	if !strings.Contains(out, "X") {
		t.Error("no center marker in scatter")
	}
	if !strings.Contains(out, ".") {
		t.Error("no data points in scatter")
	}
}

func TestAsciiScatterDegenerate(t *testing.T) {
	// Identical points (zero range) must not panic or divide by zero.
	pts := []vec.Vector{{1, 1}, {1, 1}}
	out := asciiScatter(pts, nil, 10, 5, 0)
	if !strings.Contains(out, ".") {
		t.Error("degenerate scatter lost its points")
	}
}

func TestAsciiSeries(t *testing.T) {
	out := asciiSeries("title", []float64{1, 2, 3},
		map[string][]float64{"up": {1, 2, 3}, "down": {3, 2, 1}}, 30, 10)
	if !strings.Contains(out, "title") {
		t.Error("missing title")
	}
	// Two distinct series markers.
	if !strings.Contains(out, " = up") || !strings.Contains(out, " = down") {
		t.Errorf("missing legend:\n%s", out)
	}
}

func TestOptionsScaled(t *testing.T) {
	o := Options{Scale: 0.5}.withDefaults()
	if got := o.scaled(1000); got != 500 {
		t.Errorf("scaled = %d", got)
	}
	// Floors at 100 so tiny scales still produce runnable datasets.
	if got := o.scaled(10); got != 100 {
		t.Errorf("scaled floor = %d", got)
	}
	if d := (Options{}).withDefaults(); d.Scale != 1.0 || d.Out == nil {
		t.Error("defaults wrong")
	}
}
