package main

import (
	"strings"
	"testing"
	"time"

	"sbcrawl"
)

// goodResult is a consistent two-target crawl of a three-target site.
func goodResult() (*sbcrawl.Result, map[string]bool) {
	truth := map[string]bool{"https://s/a.csv": true, "https://s/b.csv": true, "https://s/c.csv": true}
	res := &sbcrawl.Result{
		Strategy:       "BFS",
		Targets:        []string{"https://s/a.csv", "https://s/b.csv"},
		Requests:       5,
		TargetBytes:    300,
		NonTargetBytes: 700,
		Curve: []sbcrawl.CurvePoint{
			{Requests: 2, Targets: 1, TargetBytes: 100, NonTargetBytes: 200},
			{Requests: 5, Targets: 2, TargetBytes: 300, NonTargetBytes: 700},
		},
	}
	return res, truth
}

func clone(r *sbcrawl.Result) *sbcrawl.Result {
	c := *r
	c.Targets = append([]string(nil), r.Targets...)
	c.Curve = append([]sbcrawl.CurvePoint(nil), r.Curve...)
	return &c
}

func TestCheckResultAcceptsConsistentCrawl(t *testing.T) {
	res, truth := goodResult()
	if probs := checkResult(res, truth, 5); len(probs) > 0 {
		t.Fatalf("consistent crawl rejected: %v", probs)
	}
	if probs := sameOutcome(clone(res), res, "reference"); len(probs) > 0 {
		t.Fatalf("identical results differ: %v", probs)
	}
}

// Each corruption must fail the check that guards against it.
func TestChecksRejectCorruptResults(t *testing.T) {
	res, truth := goodResult()
	cases := []struct {
		name   string
		mutate func(r *sbcrawl.Result)
		check  func(r *sbcrawl.Result) []string
		want   string
	}{
		{"dropped target", func(r *sbcrawl.Result) {
			r.Targets = r.Targets[:1]
		}, func(r *sbcrawl.Result) []string {
			return checkComplete(r, map[string]bool{"https://s/a.csv": true, "https://s/b.csv": true})
		}, "not retrieved"},
		{"duplicated target", func(r *sbcrawl.Result) {
			r.Targets = append(r.Targets, r.Targets[0])
		}, func(r *sbcrawl.Result) []string { return checkResult(r, truth, 0) }, "duplicate target"},
		{"foreign target", func(r *sbcrawl.Result) {
			r.Targets[1] = "https://elsewhere/x.csv"
		}, func(r *sbcrawl.Result) []string { return checkResult(r, truth, 0) }, "not in the site's ground truth"},
		{"curve disagrees with requests", func(r *sbcrawl.Result) {
			r.Requests++
		}, func(r *sbcrawl.Result) []string { return checkResult(r, truth, 0) }, "last curve point"},
		{"curve disagrees with bytes", func(r *sbcrawl.Result) {
			r.Curve[len(r.Curve)-1].NonTargetBytes--
		}, func(r *sbcrawl.Result) []string { return checkResult(r, truth, 0) }, "last curve point"},
		{"budget exceeded", func(r *sbcrawl.Result) {}, func(r *sbcrawl.Result) []string {
			return checkResult(r, truth, 4)
		}, "exceed the budget"},
		{"resumed result differs from its reference: target order", func(r *sbcrawl.Result) {
			r.Targets[0], r.Targets[1] = r.Targets[1], r.Targets[0]
		}, func(r *sbcrawl.Result) []string { return sameOutcome(r, res, "reference") }, "target #0"},
		{"resumed result differs from its reference: curve", func(r *sbcrawl.Result) {
			r.Curve[0].Targets = 0
		}, func(r *sbcrawl.Result) []string { return sameOutcome(r, res, "reference") }, "curve point #0"},
		{"resumed result differs from its reference: requests", func(r *sbcrawl.Result) {
			r.Requests = 6
		}, func(r *sbcrawl.Result) []string { return sameOutcome(r, res, "reference") }, "requests"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := clone(res)
			tc.mutate(r)
			probs := tc.check(r)
			if !strings.Contains(strings.Join(probs, "; "), tc.want) {
				t.Fatalf("check did not report %q; got %v", tc.want, probs)
			}
		})
	}
}

func TestRequestsTo90(t *testing.T) {
	res, _ := goodResult()
	if r, ok := requestsTo90(res); !ok || r != 5 {
		t.Fatalf("requestsTo90 = %d, %v; want 5 (two targets need both)", r, ok)
	}
	res.Targets, res.Curve = nil, nil
	if _, ok := requestsTo90(res); ok {
		t.Fatal("a crawl without targets has no 90% point")
	}
}

// tinyWorkloads are the three workloads at sizes that run in a second or
// two, with every check of the full-size runs.
func tinyWorkloads(t *testing.T, seed int64) map[string]bench {
	sc, err := newScratch(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]bench{
		"sb-paper": &sbPaper{seed: seed, size: sbPaperParams{
			codes: []string{"cl", "qa", "ju", "ed"}, scale: 0.0005, instances: 1,
		}},
		"bfs-federation": &bfsFederation{seed: seed, size: bfsFederationParams{
			codes: []string{"cl", "ju", "cn", "ok", "qa", "ed", "be", "in"}, scale: 0.001,
			budget: 1000, latency: time.Millisecond, instances: 1,
		}},
		"durable-fleet": &durableFleet{seed: seed, scratch: sc, size: durableFleetParams{
			codes: []string{"cl", "ju"}, scale: 0.002, instances: 1, budget: 60, checkpoint: 8, faultRate: 0.05,
		}},
	}
}

func TestWorkloadsPassAtTinySize(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		for name, b := range tinyWorkloads(t, seed) {
			rep, err := untracedRun(b, 0)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("%s seed %d: correct=%v attempted=%d failed=%d", name, seed, rep.Correct, rep.Attempted, rep.Failed)
			}
			for _, m := range []string{"wall_ms_per_kreq", "cpu_ms_per_kreq", "setup_s", "peak_rss_mb", "target_recall", "req_share_90"} {
				if rep.Metrics[m].Value <= 0 {
					t.Errorf("%s seed %d: metric %s = %v, want > 0", name, seed, m, rep.Metrics[m].Value)
				}
			}
		}
	}
}

func TestTracedRunMatchesUntraced(t *testing.T) {
	for name, b := range tinyWorkloads(t, 7) {
		sc, err := newScratch(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		rep, err := tracedRun(b, 0, "", sc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !rep.Correct || rep.Failed != 0 {
			t.Fatalf("%s: traced run failed its checks: attempted=%d failed=%d", name, rep.Attempted, rep.Failed)
		}
		for _, m := range []string{"core.steps", "dom.pages", "webserver.calls_per_kreq", "trace.overhead_ratio"} {
			if rep.Metrics[m].Value <= 0 {
				t.Errorf("%s: metric %s = %v, want > 0", name, m, rep.Metrics[m].Value)
			}
		}
	}
}

func TestPassTimes(t *testing.T) {
	ms := time.Millisecond
	pass := func(chunks ...chunk) passStats { return passStats{chunks: chunks} }
	// Two chunks. In the second pass the host ran at half speed (the
	// calibration kernel took twice the reference); in the third the first
	// chunk stalled in wall time only.
	passes := []passStats{
		pass(chunk{wall: 100 * ms, cpu: 90 * ms, calWall: 2 * calReference, calCPU: 2 * calReference, cals: 2},
			chunk{wall: 200 * ms, cpu: 180 * ms, calWall: calReference, calCPU: calReference, cals: 1}),
		pass(chunk{wall: 200 * ms, cpu: 180 * ms, calWall: 4 * calReference, calCPU: 4 * calReference, cals: 2},
			chunk{wall: 400 * ms, cpu: 360 * ms, calWall: 2 * calReference, calCPU: 2 * calReference, cals: 1}),
		pass(chunk{wall: 500 * ms, cpu: 90 * ms, calWall: 2 * calReference, calCPU: 2 * calReference, cals: 2},
			chunk{wall: 200 * ms, cpu: 180 * ms, calWall: calReference, calCPU: calReference, cals: 1}),
	}
	if w, c := passTimes(passes, true); w != 300*ms || c != 270*ms {
		t.Errorf("scaled: wall %v cpu %v, want 300ms 270ms (the median pass at reference speed)", w, c)
	}
	if w, c := passTimes(passes, false); w != 300*ms || c != 270*ms {
		t.Errorf("wall unscaled: wall %v cpu %v, want 300ms (the fastest pass of each chunk) 270ms", w, c)
	}
	// A slowdown the kernel does not share is the crawler's own: it shows.
	passes[1].chunks[1].wall = 800 * ms
	passes[2].chunks[1].wall = 400 * ms
	if w, _ := passTimes(passes, true); w != 500*ms {
		t.Errorf("scaled after a crawler slowdown: wall %v, want 500ms", w)
	}
}
