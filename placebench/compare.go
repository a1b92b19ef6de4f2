package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json the comparator reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runOutput is one untraced run's record and result lines.
type runOutput struct {
	rec record
	res result
}

// compareMain reads two sets of run outputs (directories of files, each
// the standard output of one run) and prints, for every workload and
// end-to-end metric, each set's median and interquartile spread and
// whether the sets agree within the metric's BENCHMARK.json bound. It
// exits 1 unless every metric agrees.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("placebench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark description giving the metrics and their bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: placebench compare [-bench BENCHMARK.json] <set-a-dir> <set-b-dir>")
		return 2
	}
	raw, err := os.ReadFile(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "placebench compare:", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintln(stderr, "placebench compare:", *specPath+":", err)
		return 2
	}
	sets := make([]map[string][]runOutput, 2)
	for i := range sets {
		if sets[i], err = loadSet(fs.Arg(i)); err != nil {
			fmt.Fprintln(stderr, "placebench compare:", err)
			return 2
		}
	}
	ok := compareSets(stdout, spec, sets[0], sets[1])
	if !ok {
		return 1
	}
	return 0
}

// loadSet reads every file of dir as one run's output, keeping untraced
// runs grouped by workload.
func loadSet(dir string) (map[string][]runOutput, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		return nil, err
	}
	out := map[string][]runOutput{}
	for _, f := range files {
		ro, err := readRun(f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if !ro.rec.Traced {
			out[ro.rec.Workload] = append(out[ro.rec.Workload], ro)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no untraced run outputs", dir)
	}
	return out, nil
}

func readRun(path string) (runOutput, error) {
	f, err := os.Open(path)
	if err != nil {
		return runOutput{}, err
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		if l := strings.TrimSpace(sc.Text()); l != "" {
			lines = append(lines, l)
		}
	}
	if err := sc.Err(); err != nil {
		return runOutput{}, err
	}
	if len(lines) < 2 {
		return runOutput{}, fmt.Errorf("not a run output (%d lines)", len(lines))
	}
	var ro runOutput
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &ro.rec); err != nil || ro.rec.Record != "placebench" {
		return runOutput{}, fmt.Errorf("no run record before the result line")
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &ro.res); err != nil {
		return runOutput{}, fmt.Errorf("result line: %w", err)
	}
	return ro, nil
}

// spread is a set's median and interquartile range of one metric.
type spread struct{ median, q1, q3 float64 }

func (s spread) rel() float64 {
	if s.median == 0 {
		return math.Inf(1)
	}
	return (s.q3 - s.q1) / math.Abs(s.median)
}

// quartiles matches Python's statistics.median and the default
// (exclusive) statistics.quantiles(values, n=4).
func quartiles(values []float64) spread {
	xs := append([]float64(nil), values...)
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return spread{}
	}
	s := spread{median: xs[n/2]}
	if n%2 == 0 {
		s.median = (xs[n/2-1] + xs[n/2]) / 2
	}
	if n < 2 {
		s.q1, s.q3 = xs[0], xs[0]
		return s
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	s.q1, s.q3 = q(1), q(3)
	return s
}

// compareSets prints the table and returns whether every workload ×
// metric agrees: both spreads within the bound, B's median within the
// bound of A's in either direction, and the same share of failed
// operations. It ends with the largest shift in each direction.
func compareSets(w io.Writer, spec benchSpec, a, b map[string][]runOutput) bool {
	var names []string
	for wl := range a {
		names = append(names, wl)
	}
	sort.Strings(names)
	ok := true
	type extreme struct {
		shift float64
		where string
	}
	var worst, best extreme
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median\tA IQR/med\tB median\tB IQR/med\tB vs A (worse +)\tbound\tverdict")
	for _, wl := range names {
		ra, rb := a[wl], b[wl]
		if len(rb) == 0 {
			fmt.Fprintf(tw, "%s\t(all)\t\t\t\t\t\t\tMISSING in set B\n", wl)
			ok = false
			continue
		}
		for _, m := range spec.EndToEnd {
			sa, sb := quartiles(metricValues(ra, m.Name)), quartiles(metricValues(rb, m.Name))
			worse := (sb.median - sa.median) / math.Abs(sa.median)
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "agree"
			switch {
			case sa.rel() > m.Bound || sb.rel() > m.Bound:
				verdict = "UNRESOLVED (spread above bound)"
				ok = false
			case math.Abs(worse) > m.Bound:
				verdict = "DISAGREE"
				ok = false
			}
			where := wl + " " + m.Name
			if worse > worst.shift {
				worst = extreme{worse, where}
			}
			if worse < best.shift {
				best = extreme{worse, where}
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.4f\t%.6g %s\t%.4f\t%+.4f\t%.3g\t%s\n",
				wl, m.Name, sa.median, m.Unit, sa.rel(), sb.median, m.Unit, sb.rel(), worse, m.Bound, verdict)
		}
		fa, fb := failedShare(ra), failedShare(rb)
		verdict := "agree"
		if fa != fb {
			verdict = "DISAGREE"
			ok = false
		}
		fmt.Fprintf(tw, "%s\tfailed share\t%.6g\t\t%.6g\t\t\t\t%s\n", wl, fa, fb, verdict)
		fmt.Fprintf(tw, "%s\thost steal %%\t%.1f\t(runs %d)\t%.1f\t(runs %d)\t\t\t\n", wl, medianSteal(ra), len(ra), medianSteal(rb), len(rb))
	}
	tw.Flush()
	fmt.Fprintf(w, "largest shift of B against A: %+.4f worse (%s), %+.4f better (%s)\n",
		worst.shift, orNone(worst.where), -best.shift, orNone(best.where))
	if ok {
		fmt.Fprintln(w, "sets agree on every workload and metric")
	} else {
		fmt.Fprintln(w, "sets do NOT agree")
	}
	return ok
}

func orNone(s string) string {
	if s == "" {
		return "none"
	}
	return s
}

func metricValues(runs []runOutput, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.res.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// failedShare pools failed over attempted across a set's runs.
func failedShare(runs []runOutput) float64 {
	var att, fail int64
	for _, r := range runs {
		att += r.res.Attempted
		fail += r.res.Failed
	}
	if att == 0 {
		return 0
	}
	return float64(fail) / float64(att)
}

func medianSteal(runs []runOutput) float64 {
	var xs []float64
	for _, r := range runs {
		xs = append(xs, r.rec.StealPct["timed"])
	}
	return quartiles(xs).median
}
