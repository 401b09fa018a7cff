package main

import (
	"fmt"

	"sbcrawl"
)

// The checks below hold for any seed: they compare a crawl with its own
// site's ground truth, with its own curve, or with a reference crawl of the
// same inputs — never with a digest or a count recorded for one seed.

// checkResult validates one crawl against its site's ground truth: every
// target is a ground-truth target and appears once, the budget (when
// non-zero) holds, and the last curve point agrees with the totals.
func checkResult(res *sbcrawl.Result, truth map[string]bool, budget int) []string {
	var probs []string
	seen := make(map[string]bool, len(res.Targets))
	for _, u := range res.Targets {
		switch {
		case seen[u]:
			probs = append(probs, "duplicate target "+u)
		case !truth[u]:
			probs = append(probs, "target not in the site's ground truth: "+u)
		}
		seen[u] = true
	}
	if budget > 0 && res.Requests > budget {
		probs = append(probs, fmt.Sprintf("%d requests exceed the budget %d", res.Requests, budget))
	}
	if res.Requests > 0 && len(res.Curve) == 0 {
		probs = append(probs, "no curve")
	}
	if n := len(res.Curve); n > 0 {
		last := res.Curve[n-1]
		if last.Requests != res.Requests || last.Targets != len(res.Targets) ||
			last.TargetBytes != res.TargetBytes || last.NonTargetBytes != res.NonTargetBytes {
			probs = append(probs, fmt.Sprintf("last curve point %+v disagrees with requests=%d targets=%d bytes=%d/%d",
				last, res.Requests, len(res.Targets), res.TargetBytes, res.NonTargetBytes))
		}
	}
	return probs
}

// checkComplete requires the crawl to have retrieved the site's whole
// ground-truth target set (run checkResult too: it rejects foreign and
// duplicate targets, so equal counts then mean equal sets).
func checkComplete(res *sbcrawl.Result, truth map[string]bool) []string {
	have := make(map[string]bool, len(res.Targets))
	for _, u := range res.Targets {
		have[u] = true
	}
	missing := 0
	for u := range truth {
		if !have[u] {
			missing++
		}
	}
	if missing > 0 {
		return []string{fmt.Sprintf("%d of %d ground-truth targets not retrieved", missing, len(truth))}
	}
	return nil
}

// sameOutcome compares the crawl outcome of two results — targets in
// order, requests, bytes, early stop, and the whole curve — ignoring the
// diagnostic blocks (Store, Fabric, Faults) that may legitimately differ.
func sameOutcome(got, want *sbcrawl.Result, against string) []string {
	var probs []string
	diff := func(what string, g, w any) {
		probs = append(probs, fmt.Sprintf("%s %v differs from the %s's %v", what, g, against, w))
	}
	if got.Strategy != want.Strategy {
		diff("strategy", got.Strategy, want.Strategy)
	}
	if got.Requests != want.Requests {
		diff("requests", got.Requests, want.Requests)
	}
	if got.TargetBytes != want.TargetBytes || got.NonTargetBytes != want.NonTargetBytes {
		diff("bytes", [2]int64{got.TargetBytes, got.NonTargetBytes}, [2]int64{want.TargetBytes, want.NonTargetBytes})
	}
	if got.EarlyStopped != want.EarlyStopped {
		diff("early stop", got.EarlyStopped, want.EarlyStopped)
	}
	if len(got.Targets) != len(want.Targets) {
		diff("target count", len(got.Targets), len(want.Targets))
	} else {
		for i := range got.Targets {
			if got.Targets[i] != want.Targets[i] {
				diff(fmt.Sprintf("target #%d", i), got.Targets[i], want.Targets[i])
				break
			}
		}
	}
	if len(got.Curve) != len(want.Curve) {
		diff("curve length", len(got.Curve), len(want.Curve))
	} else {
		for i := range got.Curve {
			if got.Curve[i] != want.Curve[i] {
				diff(fmt.Sprintf("curve point #%d", i), got.Curve[i], want.Curve[i])
				break
			}
		}
	}
	return probs
}

// requestsTo90 is the request count at which the crawl first held 90% of
// its final targets, read from its curve; ok is false for a crawl that
// found no target.
func requestsTo90(res *sbcrawl.Result) (int, bool) {
	final := len(res.Targets)
	if final == 0 {
		return 0, false
	}
	need := (9*final + 9) / 10 // ceil(0.9 × final)
	for _, pt := range res.Curve {
		if pt.Targets >= need {
			return pt.Requests, true
		}
	}
	return res.Requests, true
}
