// Command perfbench is the repository's crawl benchmark. It drives the
// public sbcrawl API from one process over generated sites, closed loop
// (each crawl issues its next charged request only after the previous one
// answered), checks every crawl's output, and prints one JSON result line.
//
//	go run ./perfbench --workload sb-paper --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced run; --trace 1 is
// a separate traced run reporting per-layer metrics (see README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line the benchmark prints.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts operations (one per crawl) and the reasons any failed.
type tally struct {
	attempted int
	failed    int
	reasons   []string
}

// op records one crawl: it failed when it returned an error or any check
// reported a problem.
func (t *tally) op(label string, problems []string) {
	t.attempted++
	if len(problems) == 0 {
		return
	}
	t.failed++
	for _, p := range problems {
		if len(t.reasons) < 20 {
			t.reasons = append(t.reasons, label+": "+p)
		}
	}
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 30, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	scratch, err := newScratch(scratchParent)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer scratch.remove()
	printHeader(*name, *seed, *trace, scratch.dir)

	b := w(*seed, scratch)
	budget := time.Duration(*seconds) * time.Second
	var rep *report
	if *trace == 1 {
		spans := filepath.Join(scratchParent, "spans", fmt.Sprintf("%s-seed%d.jsonl.gz", *name, *seed))
		rep, err = tracedRun(b, budget, spans, scratch)
	} else {
		rep, err = untracedRun(b, budget)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// printHeader states where the numbers come from, so results recorded on
// different machines are never compared silently.
func printHeader(workload string, seed int64, trace int, storeDir string) {
	fmt.Printf("# perfbench workload=%s seed=%d trace=%d\n", workload, seed, trace)
	fmt.Printf("# host gomaxprocs=%d nproc=%d go=%s os=%s/%s\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Printf("# store dir=%s fs=%s\n", storeDir, fsType(storeDir))
}

// finish turns a run's tally into the report.
func finish(t *tally, metrics map[string]metric) *report {
	for _, r := range t.reasons {
		fmt.Println("# FAILED", r)
	}
	if t.attempted == 0 {
		t.attempted, t.failed = 1, 1
		fmt.Println("# FAILED no crawl ran")
	}
	return &report{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   metrics,
	}
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's maximum resident set size so far (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// perK scales a total to a per-1000-requests figure.
func perK(total float64, requests int) float64 {
	if requests == 0 {
		return 0
	}
	return total * 1000 / float64(requests)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
