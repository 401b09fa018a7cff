package main

// The traced run: crawls assembled from the same exported pieces
// sbcrawl's siteCrawlEnv uses, with a timing wrapper at every seam the
// engine exposes (core.Env.Fetcher, fetch.SimBackend, bandit.Policy via
// core.SBConfig.Policy, core.Checkpointer), plus replays of the inputs
// captured at those seams through each layer's exported functions. No
// library code is changed to trace it.

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"sbcrawl"
	"sbcrawl/internal/bandit"
	"sbcrawl/internal/core"
	"sbcrawl/internal/faultsim"
	"sbcrawl/internal/fetch"
	"sbcrawl/internal/metrics"
	"sbcrawl/internal/webserver"
)

// span is one timed call at a seam or one replay.
type span struct {
	name       string
	start, end time.Duration // since the tracer started
	parent     int32         // index of the causing span; -1 for none
	crawl      int32         // traced crawl id; -1 for replays
}

// tracer keeps every span in memory; they are written out at exit.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (tr *tracer) begin(name string, parent, crawl int) int {
	now := time.Since(tr.t0)
	tr.mu.Lock()
	id := len(tr.spans)
	tr.spans = append(tr.spans, span{name: name, start: now, end: -1, parent: int32(parent), crawl: int32(crawl)})
	tr.mu.Unlock()
	return id
}

// beginCrawl opens a crawl span, which is its own crawl id.
func (tr *tracer) beginCrawl() int {
	id := tr.begin("crawl", -1, -1)
	tr.mu.Lock()
	tr.spans[id].crawl = int32(id)
	tr.mu.Unlock()
	return id
}

func (tr *tracer) end(id int) {
	now := time.Since(tr.t0)
	tr.mu.Lock()
	tr.spans[id].end = now
	tr.mu.Unlock()
}

// selfTimes is each span's duration minus the part of its interval its
// child spans cover (children of a pipelined crawl overlap; their union
// counts once).
func (tr *tracer) selfTimes() []time.Duration {
	children := make(map[int32][]int, len(tr.spans)/2)
	for i, s := range tr.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]time.Duration, len(tr.spans))
	for i, s := range tr.spans {
		self[i] = s.end - s.start
		kids := children[int32(i)]
		sort.Slice(kids, func(a, b int) bool { return tr.spans[kids[a]].start < tr.spans[kids[b]].start })
		var covered, curEnd time.Duration
		curStart := time.Duration(-1)
		for _, k := range kids {
			c := tr.spans[k]
			switch {
			case curStart < 0:
				curStart, curEnd = c.start, c.end
			case c.start > curEnd:
				covered += curEnd - curStart
				curStart, curEnd = c.start, c.end
			case c.end > curEnd:
				curEnd = c.end
			}
		}
		if curStart >= 0 {
			covered += curEnd - curStart
		}
		self[i] -= covered
	}
	return self
}

// write stores the spans as gzipped JSON lines.
func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	for _, s := range tr.spans {
		fmt.Fprintf(bw, "{\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"crawl\":%d}\n",
			s.name, s.start.Nanoseconds(), s.end.Nanoseconds(), s.parent, s.crawl)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---- seams ----

// seam is what every wrapper of one traced crawl shares.
type seam struct {
	tr    *tracer
	crawl int // the crawl's span, parent of its seam spans
	// open is the fetch span in progress on a sequential crawl: a backend
	// call inside it is its child. -1 on pipelined crawls, whose fetches
	// overlap.
	open int
	seq  bool
}

// exchange is one captured call at the Env.Fetcher seam.
type exchange struct {
	url  string
	head bool
	resp fetch.Response
	err  error
}

// tracedFetcher wraps core.Env.Fetcher; on a capturing crawl it records
// every exchange in crawl order.
type tracedFetcher struct {
	*seam
	inner   fetch.Fetcher
	capture *[]exchange
	pages   *int // HTML pages fetched, counted on every round of a capturing crawl
}

func (f *tracedFetcher) do(u string, head bool) (fetch.Response, error) {
	name := "fetch.get"
	if head {
		name = "fetch.head"
	}
	id := f.tr.begin(name, f.crawl, f.crawl)
	if f.seq {
		f.open = id
	}
	var resp fetch.Response
	var err error
	if head {
		resp, err = f.inner.Head(u)
	} else {
		resp, err = f.inner.Get(u)
	}
	f.tr.end(id)
	if f.seq {
		f.open = -1
	}
	if f.capture != nil {
		*f.capture = append(*f.capture, exchange{url: u, head: head, resp: resp, err: err})
	}
	if f.pages != nil && !head && err == nil && isPage(resp) {
		*f.pages++
	}
	return resp, err
}

func (f *tracedFetcher) Get(u string) (fetch.Response, error)  { return f.do(u, false) }
func (f *tracedFetcher) Head(u string) (fetch.Response, error) { return f.do(u, true) }

// tracedBackend wraps the fetch.SimBackend: the simulated web server's
// page rendering, which is substrate cost, never crawler cost.
type tracedBackend struct {
	*seam
	inner fetch.SimBackend
}

func (b *tracedBackend) parent() int {
	if b.seq && b.open >= 0 {
		return b.open
	}
	return b.crawl
}

func (b *tracedBackend) Get(u string) webserver.Response {
	id := b.tr.begin("webserver.get", b.parent(), b.crawl)
	r := b.inner.Get(u)
	b.tr.end(id)
	return r
}

func (b *tracedBackend) Head(u string) webserver.Response {
	id := b.tr.begin("webserver.head", b.parent(), b.crawl)
	r := b.inner.Head(u)
	b.tr.end(id)
	return r
}

// tracedPolicy wraps the bandit policy SB-CLASSIFIER would build itself.
type tracedPolicy struct {
	*seam
	inner bandit.Policy
}

func (p *tracedPolicy) time(name string) func() {
	id := p.tr.begin(name, p.crawl, p.crawl)
	return func() { p.tr.end(id) }
}

func (p *tracedPolicy) EnsureArm(arm int) { defer p.time("bandit.ensure")(); p.inner.EnsureArm(arm) }
func (p *tracedPolicy) Select(available []int, t int) (int, bool) {
	defer p.time("bandit.select")()
	return p.inner.Select(available, t)
}
func (p *tracedPolicy) RecordSelection(arm int) {
	defer p.time("bandit.record")()
	p.inner.RecordSelection(arm)
}
func (p *tracedPolicy) RecordReward(arm int, reward float64) {
	defer p.time("bandit.reward")()
	p.inner.RecordReward(arm, reward)
}
func (p *tracedPolicy) MeanReward(arm int) float64 { return p.inner.MeanReward(arm) }
func (p *tracedPolicy) Count(arm int) int          { return p.inner.Count(arm) }
func (p *tracedPolicy) NumArms() int               { return p.inner.NumArms() }

// tracedCheckpointer receives the engine's checkpoints and keeps them for
// the codec replay.
type tracedCheckpointer struct {
	*seam
	kept *[]core.Checkpoint
}

func (c *tracedCheckpointer) Checkpoint(cp core.Checkpoint) {
	id := c.tr.begin("checkpoint", c.crawl, c.crawl)
	*c.kept = append(*c.kept, cp)
	c.tr.end(id)
}

// discardCheckpoints is the untraced twin's checkpoint sink, so both runs
// build the same checkpoints.
type discardCheckpoints struct{}

func (discardCheckpoints) Checkpoint(core.Checkpoint) {}

// ---- traced crawls ----

// envCrawl is one crawl the traced run assembles itself.
type envCrawl struct {
	label      string
	sub        *substrate
	seed       int64
	sb         bool // SB-CLASSIFIER; BFS otherwise
	budget     int
	prefetch   int
	latency    time.Duration
	faultRate  float64
	checkpoint int
	// workload marks the crawls that run the workload's own configuration;
	// the others are sequential references that only feed core self time
	// and the replays.
	workload bool
	capture  bool
	// want is the untraced public-API result the crawl must equal.
	want func() *sbcrawl.Result
}

// crawlRun is one finished env crawl.
type crawlRun struct {
	res         *core.Result
	wall        time.Duration
	span        int // its crawl span; -1 untraced
	pages       int // HTML pages fetched (capturing crawls only)
	exchanges   []exchange
	checkpoints []core.Checkpoint
}

// run crawls c, with every seam wrapped when tr is non-nil.
func (c *envCrawl) run(tr *tracer, round int) (*crawlRun, error) {
	out := &crawlRun{span: -1}
	var sm *seam
	if tr != nil {
		out.span = tr.beginCrawl()
		sm = &seam{tr: tr, crawl: out.span, open: -1, seq: c.prefetch == 0}
	}
	backend := c.sub.backend
	if sm != nil {
		backend = &tracedBackend{seam: sm, inner: backend}
	}
	var f fetch.Fetcher = fetch.NewSim(backend)
	if c.faultRate > 0 {
		f = fetch.NewFaultInjector(f, faultsim.NewPlan(faultsim.Schedule{Seed: c.seed, Rate: c.faultRate}))
	}
	if c.latency > 0 {
		f = &fetch.Latency{Backend: f, Delay: c.latency}
	}
	if sm != nil {
		tf := &tracedFetcher{seam: sm, inner: f}
		if c.capture && sm.seq {
			tf.pages = &out.pages
			if round == 0 {
				tf.capture = &out.exchanges
			}
		}
		f = tf
	}
	// Retry and breaker policies as sbcrawl builds them for simulated crawls.
	rp := fetch.DefaultRetryPolicy()
	rp.Seed = c.seed
	bp := fetch.DefaultBreakerPolicy()
	env := &core.Env{
		Root:        c.sub.root,
		Fetcher:     f,
		MaxRequests: c.budget,
		Prefetch:    c.prefetch,
		Retry:       &rp,
		Breaker:     &bp,
	}
	if c.checkpoint > 0 {
		env.CheckpointEvery = c.checkpoint
		env.Checkpoint = discardCheckpoints{}
		if sm != nil {
			env.Checkpoint = &tracedCheckpointer{seam: sm, kept: &out.checkpoints}
		}
	}
	var crawler core.Crawler = core.NewBFS()
	if c.sb {
		cfg := core.SBConfig{Seed: c.seed}
		if sm != nil {
			// The policy SB builds itself for the default Config.
			cfg.Policy = &tracedPolicy{seam: sm, inner: bandit.NewSleeping()}
		}
		crawler = core.NewSB(cfg)
	}
	t0 := time.Now()
	res, err := crawler.Run(env)
	out.wall = time.Since(t0)
	if tr != nil {
		tr.end(out.span)
	}
	out.res = res
	return out, err
}

// outcomeOf converts an engine result the way sbcrawl does, for comparison
// with the public results.
func outcomeOf(res *core.Result) *sbcrawl.Result {
	out := &sbcrawl.Result{
		Strategy:       res.Crawler,
		Targets:        res.Targets,
		Requests:       res.Requests,
		TargetBytes:    res.TargetBytes,
		NonTargetBytes: res.NonTargetBytes,
		EarlyStopped:   res.EarlyStopped,
	}
	for _, pt := range metrics.Curve(res.Trace, 500) {
		out.Curve = append(out.Curve, sbcrawl.CurvePoint(pt))
	}
	return out
}

// cycleStats is what one durable-fleet cycle reports besides its pass.
type cycleStats struct {
	phases                   [3]time.Duration
	resumeHits, resumeMisses int
}

// tracedRun produces the per-layer metrics. It runs one untraced public
// pass (the results the traced crawls must equal), then rounds of every env
// crawl twice — untraced, then traced — until the time is spent, then the
// layer replays. Spans go to spansPath ("" keeps them in memory only).
func tracedRun(b bench, budget time.Duration, spansPath string, sc *scratch) (*report, error) {
	if err := b.setup(); err != nil {
		return nil, err
	}
	if err := b.reference(); err != nil {
		return nil, err
	}
	var t tally
	b.pass(&t)
	crawls := b.envCrawls()
	tr := newTracer()
	var runs [][]*crawlRun // per round, per crawl: the traced run
	var overhead []float64
	var cycles []cycleStats
	start := time.Now()
	// Stop before a round that would end past the budget.
	for round, last := 0, time.Duration(0); round == 0 || time.Since(start)+last <= budget; round++ {
		r0 := time.Now()
		var plainWall, tracedWall time.Duration
		var traced []*crawlRun
		for i := range crawls {
			c := &crawls[i]
			want := c.want()
			if want == nil { // the public crawl failed and was counted already
				traced = append(traced, nil)
				continue
			}
			plain, err := c.run(nil, round)
			if err != nil {
				t.op(c.label, []string{err.Error()})
				traced = append(traced, nil)
				continue
			}
			tc, err := c.run(tr, round)
			if err != nil {
				t.op(c.label, []string{err.Error()})
				traced = append(traced, nil)
				continue
			}
			plainWall += plain.wall
			tracedWall += tc.wall
			probs := sameOutcome(outcomeOf(tc.res), want, "untraced public run")
			probs = append(probs, sameOutcome(outcomeOf(plain.res), want, "untraced public run")...)
			if round > 0 && runs[0][i] != nil {
				first := runs[0][i].res
				if tc.res.Steps != first.Steps || tc.res.HeadRequests != first.HeadRequests || tc.pages != runs[0][i].pages {
					probs = append(probs, fmt.Sprintf("steps/head probes/pages %d/%d/%d, first round %d/%d/%d",
						tc.res.Steps, tc.res.HeadRequests, tc.pages, first.Steps, first.HeadRequests, runs[0][i].pages))
				}
			}
			if tc.res.Faults != nil && tc.res.Faults.FailedRequests != 0 {
				probs = append(probs, fmt.Sprintf("%d failed requests", tc.res.Faults.FailedRequests))
			}
			t.op(c.label+" (traced)", probs)
			traced = append(traced, tc)
		}
		runs = append(runs, traced)
		if plainWall > 0 {
			overhead = append(overhead, float64(tracedWall)/float64(plainWall))
		}
		// durable-fleet also times its public-API phases each round.
		if df, ok := b.(*durableFleet); ok {
			_, cs := df.cycle(&t)
			cycles = append(cycles, cs)
		}
		last = time.Since(r0)
	}
	m := layerMetrics(tr, crawls, runs, cycles)
	m["trace.overhead_ratio"] = metric{median(overhead), "ratio"}
	replays(&t, tr, m, crawls, runs[0], sc)
	fmt.Printf("# traced rounds=%d spans=%d\n", len(runs), len(tr.spans))
	if spansPath != "" {
		if err := tr.write(spansPath); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("# spans written to %s\n", spansPath)
	}
	for _, n := range notApplicable(b) {
		fmt.Println("#", n)
	}
	return finish(&t, m), nil
}

// layerMetrics reduces the spans and results of the traced crawls.
func layerMetrics(tr *tracer, crawls []envCrawl, runs [][]*crawlRun, cycles []cycleStats) map[string]metric {
	self := tr.selfTimes()
	// Busy time and call count per (crawl, span name).
	type key struct {
		crawl int32
		name  string
	}
	type acc struct {
		d time.Duration
		n int
	}
	busy := make(map[key]acc)
	for _, s := range tr.spans {
		if s.crawl < 0 || s.name == "crawl" {
			continue
		}
		k := key{s.crawl, s.name}
		a := busy[k]
		a.d += s.end - s.start
		a.n++
		busy[k] = a
	}
	byName := func(crawl int, name string) (time.Duration, int) {
		a := busy[key{int32(crawl), name}]
		return a.d, a.n
	}
	var (
		seqSelf                               time.Duration
		seqReq, req, steps, heads, fetchCalls int
		render, fetchBusy, wall, policy       time.Duration
		renderCalls, selects                  int
		hits, lookups, evicted, parseHits     int
		retries, failed                       int
		rounds                                = len(runs)
	)
	for _, round := range runs {
		for i, r := range round {
			if r == nil {
				continue
			}
			c := crawls[i]
			if c.prefetch == 0 {
				seqSelf += self[r.span]
				seqReq += r.res.Requests
			}
			if !c.workload {
				continue
			}
			req += r.res.Requests
			steps += r.res.Steps
			heads += r.res.HeadRequests
			wall += r.wall
			for _, n := range []string{"fetch.get", "fetch.head"} {
				d, k := byName(r.span, n)
				fetchBusy += d
				fetchCalls += k
			}
			for _, n := range []string{"webserver.get", "webserver.head"} {
				d, k := byName(r.span, n)
				render += d
				renderCalls += k
			}
			for _, n := range []string{"bandit.select", "bandit.ensure", "bandit.record", "bandit.reward"} {
				d, k := byName(r.span, n)
				policy += d
				if n == "bandit.select" {
					selects += k
				}
			}
			if s := r.res.Spec; s != nil {
				hits += s.Hits
				lookups += s.Hits + s.Misses
				evicted += s.Evicted
			}
			parseHits += r.res.ParseHits
			if f := r.res.Faults; f != nil {
				retries += f.Retries
				failed += f.FailedRequests
			}
		}
	}
	perRound := func(n int) float64 { return float64(n) / float64(rounds) }
	m := map[string]metric{
		"core.self_ms_per_kreq":        {perK(ms(seqSelf), seqReq), "ms"},
		"core.steps":                   {perRound(steps), "count"},
		"webserver.render_ms_per_kreq": {perK(ms(render), req), "ms"},
		"webserver.calls_per_kreq":     {perK(float64(renderCalls), req), "count"},
		"classify.head_probes":         {perRound(heads), "count"},
		"bandit.select_us_per_step":    {usPer(policy, selects), "us"},
		"fetch.backend_calls_per_kreq": {perK(float64(fetchCalls), req), "count"},
		"fetch.useful_ratio":           {ratio(req, fetchCalls), "ratio"},
		"fetch.mean_inflight":          {float64(fetchBusy) / float64(max(wall, 1)), "count"},
		"fetch.prefetch_hit_rate":      {ratio(hits, lookups), "ratio"},
		"fetch.prefetch_evicted":       {perRound(evicted), "count"},
		"fetch.parse_ahead_hits":       {perRound(parseHits), "count"},
		"fetch.retries":                {perRound(retries), "count"},
		"fetch.failed_requests":        {perRound(failed), "count"},
	}
	var phases [3][]float64
	var hitsR, missR []float64
	for _, cs := range cycles {
		for p, d := range cs.phases {
			phases[p] = append(phases[p], d.Seconds())
		}
		hitsR = append(hitsR, float64(cs.resumeHits))
		missR = append(missR, float64(cs.resumeMisses))
	}
	for p, name := range phaseNames {
		m["store."+name+"_phase_s"] = metric{median(phases[p]), "s"}
	}
	m["store.replay_hits"] = metric{median(hitsR), "count"}
	m["store.replay_misses"] = metric{median(missR), "count"}
	return m
}

// usPer is d in microseconds per one of n.
func usPer(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(time.Microsecond) / float64(n)
}

// notApplicable states, per workload, which per-layer metrics the traced
// run reports as 0 and why, and where a metric comes from other crawls than
// the workload's own.
func notApplicable(b bench) []string {
	switch b.(type) {
	case *sbPaper:
		return []string{
			"n/a fetch.prefetch_hit_rate, fetch.prefetch_evicted, fetch.parse_ahead_hits: sb-paper crawls sequentially (Prefetch 0)",
			"n/a fetch.retries, fetch.failed_requests: no faults are injected",
			"n/a store.*_phase_s, store.replay_hits, store.replay_misses: sb-paper has no store",
			"n/a codec.checkpoint_bytes: sb-paper has no store, so the engine emits no checkpoints",
		}
	case *bfsFederation:
		return []string{
			"n/a bandit.select_us_per_step, classify.head_probes: BFS has no bandit and no classifier",
			"n/a store.*_phase_s, store.replay_hits, store.replay_misses: no store",
			"n/a codec.checkpoint_bytes: no store, no checkpoints",
			"note actions.*, classify.us_per_link: BFS never calls them; the replays run the crawl's own link stream through them for reference only",
			"note core.self_ms_per_kreq: from the Prefetch=0 reference crawls (self time is defined on sequential paths only)",
		}
	case *durableFleet:
		return []string{
			"n/a bandit.select_us_per_step, classify.head_probes: BFS has no bandit and no classifier",
			"n/a fetch.prefetch_hit_rate, fetch.prefetch_evicted, fetch.parse_ahead_hits: sequential crawls (Prefetch 0)",
			"note actions.*, classify.us_per_link: BFS never calls them; the replays run the crawl's own link stream through them for reference only",
		}
	}
	return nil
}

// ---- what each workload traces ----

// envCrawls: every SB crawl of the pass; the first instance's crawls are
// captured for the replays.
func (w *sbPaper) envCrawls() []envCrawl {
	var out []envCrawl
	for i, u := range w.units {
		out = append(out, envCrawl{
			label: u.label, sub: u.sub, seed: u.seed, sb: true,
			workload: true, capture: i < len(w.size.codes),
			want: func() *sbcrawl.Result { return w.first[i] },
		})
	}
	return out
}

// envCrawls: per federation, the sequential Prefetch=0 reference crawl
// (core self time and the replays' captured input) and the workload's
// pipelined crawl (fetch, speculation and substrate metrics).
func (w *bfsFederation) envCrawls() []envCrawl {
	var out []envCrawl
	for i, u := range w.units {
		want := func() *sbcrawl.Result { return w.refs[i] }
		out = append(out,
			envCrawl{
				label: u.label + " Prefetch=0", sub: u.sub, seed: u.seed, budget: w.size.budget,
				capture: i == 0, want: want,
			},
			envCrawl{
				label: u.label, sub: u.sub, seed: u.seed, budget: w.size.budget,
				prefetch: core.PrefetchAuto, latency: w.size.latency, workload: true, want: want,
			})
	}
	return out
}

// envCrawls: each fleet site crawled sequentially to the full budget B with
// the same faults, retries and checkpoint cadence; the public phases run
// through cycle.
func (w *durableFleet) envCrawls() []envCrawl {
	var out []envCrawl
	for i, u := range w.units {
		out = append(out, envCrawl{
			label: u.label, sub: u.sub, seed: u.seed, budget: w.size.budget,
			faultRate: w.size.faultRate, checkpoint: w.size.checkpoint, workload: true, capture: true,
			want: func() *sbcrawl.Result { return w.refFull.Sites[i].Result },
		})
	}
	return out
}
