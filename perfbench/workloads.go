package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"sbcrawl"
	"sbcrawl/internal/faultsim"
	"sbcrawl/internal/fetch"
	"sbcrawl/internal/fleet"
	"sbcrawl/internal/sitegen"
	"sbcrawl/internal/webserver"
)

// bench is one workload. The untraced run calls setup (timed as setup_s,
// several times), reference (untimed: what the checks compare against),
// then pass until the measured time is spent. The traced run (trace.go)
// calls setup and reference once, one pass, then crawls envCrawls itself.
type bench interface {
	setup() error
	reference() error
	pass(t *tally) passStats
	envCrawls() []envCrawl
	timing() timing
}

// timing is how a workload's crawls are timed (see passTimes).
type timing struct {
	scaleWall   bool // CPU-bound: wall time is scaled like CPU time
	calPerCrawl int  // calibration kernel runs before each measured crawl
}

// passStats is one measured pass over a workload's crawls.
type passStats struct {
	wall, cpu time.Duration // inside the measured crawl calls only
	chunks    []chunk       // the same time, split into the workload's chunks
	requests  int           // charged requests, Result.Requests summed
	targets   int           // targets retrieved
	truth     int           // targets the crawled sites hold
	share90   float64       // Σ over crawls of the share of requests spent before holding 90% of the final targets
	crawls90  int           // crawls counted in share90 (those that found a target)
	req90     int           // the same, request-weighted: Σ requests spent before 90% …
	reqOf90   int           // … over Σ Requests of those crawls
}

// add folds one crawl result into the pass.
func (p *passStats) add(res *sbcrawl.Result, truth int) {
	p.requests += res.Requests
	p.targets += len(res.Targets)
	p.truth += truth
	if r, ok := requestsTo90(res); ok {
		p.share90 += float64(r) / float64(res.Requests)
		p.crawls90++
		p.req90 += r
		p.reqOf90 += res.Requests
	}
}

// chunk is the measured time of a fixed slice of a pass, the same crawls
// in every pass, plus the calibration kernel's time measured before each of
// those crawls.
type chunk struct {
	wall, cpu       time.Duration
	calWall, calCPU time.Duration
	cals            int
}

// measure runs the calibration kernel cals times, then times one crawl
// call, wall and process CPU, and adds both to the pass and to chunk c of
// the pass.
func (p *passStats) measure(c, cals int, fn func()) {
	var cw, cc time.Duration
	for range cals {
		w, u := calibrate()
		cw, cc = cw+w, cc+u
	}
	c0, t0 := cpuTime(), time.Now()
	fn()
	wall, cpu := time.Since(t0), cpuTime()-c0
	p.wall += wall
	p.cpu += cpu
	for len(p.chunks) <= c {
		p.chunks = append(p.chunks, chunk{})
	}
	ch := &p.chunks[c]
	ch.wall += wall
	ch.cpu += cpu
	ch.calWall += cw
	ch.calCPU += cc
	ch.cals += cals
}

// scaleTo is d, measured while n calibration kernel runs took cal in all,
// at the reference host speed: on a host where one run takes calReference.
func scaleTo(d, cal time.Duration, n int) time.Duration {
	if cal <= 0 {
		return d
	}
	return time.Duration(float64(d) * float64(calReference) * float64(n) / float64(cal))
}

// passTimes is the wall and CPU time the timing metrics report.
//
// The host lends its cores to other tenants, so the crawls run at a speed
// that drifts by a quarter over minutes (steal, a busy hyperthread sibling,
// a shared cache), in CPU time as well as in wall time. CPU time is always
// scaled: each chunk's to the reference host speed by the calibration runs
// measured in that chunk, summed over the chunks, and the median over
// passes is reported. So is wall time on a CPU-bound workload (scaleWall).
// On a latency-bound workload most of the wall time is simulated waiting,
// which host speed does not change, so the wall time is not scaled;
// instead the fastest pass of each chunk is taken, which drops stalls that
// hit one pass. Its chunks are whole crawls of a second or more, so the GC
// cycles falling in them vary little from pass to pass and GC work stays
// counted.
func passTimes(passes []passStats, scaleWall bool) (wall, cpu time.Duration) {
	var walls, cpus []float64
	for _, p := range passes {
		var w, c time.Duration
		for _, ch := range p.chunks {
			w += scaleTo(ch.wall, ch.calWall, ch.cals)
			c += scaleTo(ch.cpu, ch.calCPU, ch.cals)
		}
		walls, cpus = append(walls, float64(w)), append(cpus, float64(c))
	}
	wall, cpu = time.Duration(median(walls)), time.Duration(median(cpus))
	if !scaleWall {
		wall = 0
		for c := range passes[0].chunks {
			w := passes[0].chunks[c].wall
			for _, p := range passes[1:] {
				w = min(w, p.chunks[c].wall)
			}
			wall += w
		}
	}
	return wall, cpu
}

// untracedRun produces the end-to-end metrics.
func untracedRun(b bench, budget time.Duration) (*report, error) {
	warmCalibration()
	var setups []float64
	var setupCal time.Duration
	for i := 0; i < setupRepeats; i++ {
		cw, _ := calibrate()
		setupCal += cw
		t0 := time.Now()
		if err := b.setup(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	// Generating sites is CPU-bound on every workload, so setup_s is
	// scaled to the reference host speed like the CPU-bound crawls.
	setup := scaleTo(time.Duration(median(setups)*float64(time.Second)), setupCal, setupRepeats).Seconds()
	if err := b.reference(); err != nil {
		return nil, err
	}
	var t tally
	var passes []passStats
	var walls, cpus, calWalls, calCPUs []float64
	start := time.Now()
	for last := time.Duration(0); len(passes) == 0 || time.Since(start)+last <= budget; {
		t0 := time.Now()
		p := b.pass(&t)
		last = time.Since(t0)
		passes = append(passes, p)
		walls = append(walls, perK(ms(p.wall), p.requests))
		cpus = append(cpus, perK(ms(p.cpu), p.requests))
		for _, ch := range p.chunks {
			calWalls = append(calWalls, ms(ch.calWall)/float64(ch.cals))
			calCPUs = append(calCPUs, ms(ch.calCPU)/float64(ch.cals))
		}
	}
	first := passes[0]
	tm := b.timing()
	wall, cpu := passTimes(passes, tm.scaleWall)
	fmt.Printf("# passes=%d chunks/pass=%d requests/pass=%d targets/pass=%d setup_runs=%d scale_wall=%v\n",
		len(passes), len(first.chunks), first.requests, first.targets, len(setups), tm.scaleWall)
	fmt.Printf("# unscaled wall_ms_per_kreq by pass: %s\n", spreadOf(walls))
	fmt.Printf("# unscaled cpu_ms_per_kreq by pass: %s\n", spreadOf(cpus))
	fmt.Printf("# calibration kernel ms (reference %.4g): wall %s; thread cpu %s\n", ms(calReference), spreadOf(calWalls), spreadOf(calCPUs))
	fmt.Printf("# unscaled setup_s by repeat: %s; calibration kernel ms %.4g\n", spreadOf(setups), ms(setupCal)/setupRepeats)
	fmt.Printf("# req_share_90 weighted by requests instead of by crawl: %.4f\n", ratio(first.req90, first.reqOf90))
	return finish(&t, map[string]metric{
		"wall_ms_per_kreq": {perK(ms(wall), first.requests), "ms"},
		"cpu_ms_per_kreq":  {perK(ms(cpu), first.requests), "ms"},
		"setup_s":          {setup, "s"},
		"peak_rss_mb":      {peakRSSMB(), "MB"},
		"target_recall":    {ratio(first.targets, first.truth), "ratio"},
		"req_share_90":     {first.share90 / float64(max(first.crawls90, 1)), "ratio"},
	}), nil
}

// setupRepeats is how often a run generates its inputs; setup_s is the
// median, steadier than one sample.
const setupRepeats = 15

// spreadOf summarizes samples as min / median / max.
func spreadOf(xs []float64) string {
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	return fmt.Sprintf("min=%.4g median=%.4g max=%.4g", lo, median(xs), hi)
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

var workloads = map[string]func(seed int64, s *scratch) bench{
	"sb-paper": func(seed int64, _ *scratch) bench {
		return &sbPaper{seed: seed, size: sbPaperSize}
	},
	"bfs-federation": func(seed int64, _ *scratch) bench {
		return &bfsFederation{seed: seed, size: bfsFederationSize}
	},
	"durable-fleet": func(seed int64, s *scratch) bench {
		return &durableFleet{seed: seed, size: durableFleetSize, scratch: s}
	},
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// substrate is a workload site regenerated from the same exported pieces
// sbcrawl.GenerateSite and GenerateFederation assemble, giving the checks
// their ground truth and the traced run a core.Env it can wrap.
type substrate struct {
	root    string
	backend fetch.SimBackend
	truth   map[string]bool
	lookup  func(u string) (*sitegen.Page, bool)
}

func genSubstrate(code string, scale float64, seed int64) (*substrate, error) {
	profile, ok := sitegen.ProfileByCode(code)
	if !ok {
		return nil, fmt.Errorf("unknown site code %q", code)
	}
	site := sitegen.Generate(sitegen.Config{Profile: profile, Scale: scale, Seed: seed})
	var backend fetch.SimBackend = webserver.New(site)
	if profile.Faults != nil {
		backend = webserver.NewFlaky(backend, faultsim.NewPlan(*profile.Faults))
	}
	return &substrate{root: site.Root(), backend: backend, truth: toSet(site.TargetURLs()), lookup: site.Lookup}, nil
}

func genFederationSubstrate(codes []string, scale float64, seed int64) (*substrate, error) {
	var members []*sitegen.Site
	for i, code := range codes {
		profile, ok := sitegen.ProfileByCode(code)
		if !ok {
			return nil, fmt.Errorf("unknown site code %q", code)
		}
		// Member seeds as sbcrawl.GenerateFederation derives them.
		members = append(members, sitegen.Generate(sitegen.Config{Profile: profile, Scale: scale, Seed: seed + int64(i)*1000003}))
	}
	fed := webserver.NewFederation("federation.test", members)
	return &substrate{root: fed.Root(), backend: fed, truth: toSet(fed.TargetURLs()), lookup: fed.Lookup}, nil
}

// matches reports whether the regenerated substrate is the site the public
// API generated; a mismatch means the reference drifted from the library.
func (s *substrate) matches(site *sbcrawl.Site) error {
	if s.root != site.Root() || len(s.truth) != site.TargetCount() {
		return fmt.Errorf("reference substrate for %s drifted from the library (root %s vs %s, %d vs %d targets)",
			site.Code(), s.root, site.Root(), len(s.truth), site.TargetCount())
	}
	return nil
}

func toSet(xs []string) map[string]bool {
	m := make(map[string]bool, len(xs))
	for _, x := range xs {
		m[x] = true
	}
	return m
}

// instanceSeed derives the seed of a workload's k-th site instance from
// the run's seed. Several independent instances per profile average out
// how much one generated site favours a crawl order, which keeps the
// quality metrics steady from seed to seed.
func instanceSeed(seed int64, k int) int64 { return fleet.DeriveSeed(seed, k) }

// unit is one crawl of a pass: a generated site, the substrate regenerated
// for its checks, and the seed its crawl runs with.
type unit struct {
	label string
	seed  int64
	site  *sbcrawl.Site
	sub   *substrate
}

// ---- sb-paper ----

// sbPaperSize: six instances of each of eight profiles at scale 0.003,
// about 31k charged requests and 8 s a pass on a 2-core box.
var sbPaperSize = sbPaperParams{
	codes:     []string{"cl", "cn", "qa", "be", "ju", "ok", "in", "ed"},
	scale:     0.003,
	instances: 6,
}

type sbPaperParams struct {
	codes     []string
	scale     float64
	instances int
}

// sbPaper: SB-CLASSIFIER with the default Config crawls each site to
// exhaustion, one after another on one goroutine.
type sbPaper struct {
	seed  int64
	size  sbPaperParams
	units []unit
	first []*sbcrawl.Result
}

func (w *sbPaper) timing() timing { return timing{scaleWall: true, calPerCrawl: 1} }

func (w *sbPaper) setup() error {
	w.units = w.units[:0]
	for k := 0; k < w.size.instances; k++ {
		seed := instanceSeed(w.seed, k)
		for _, code := range w.size.codes {
			site, err := sbcrawl.GenerateSite(code, w.size.scale, seed)
			if err != nil {
				return err
			}
			w.units = append(w.units, unit{label: fmt.Sprintf("%s#%d", code, k), seed: seed, site: site})
		}
	}
	return nil
}

func (w *sbPaper) reference() error {
	for i := range w.units {
		u := &w.units[i]
		sub, err := genSubstrate(u.site.Code(), w.size.scale, u.seed)
		if err != nil {
			return err
		}
		if err := sub.matches(u.site); err != nil {
			return err
		}
		u.sub = sub
	}
	w.first = make([]*sbcrawl.Result, len(w.units))
	return nil
}

func (w *sbPaper) pass(t *tally) passStats {
	var p passStats
	for i, u := range w.units {
		var res *sbcrawl.Result
		var err error
		// One chunk per instance: its eight crawls, about a second.
		p.measure(i/len(w.size.codes), w.timing().calPerCrawl, func() { res, err = sbcrawl.CrawlSite(u.site, sbcrawl.Config{Seed: u.seed}) })
		if err != nil {
			t.op(u.label, []string{err.Error()})
			continue
		}
		probs := checkResult(res, u.sub.truth, 0)
		probs = append(probs, checkComplete(res, u.sub.truth)...)
		if w.first[i] == nil {
			w.first[i] = res
		} else {
			// The determinism contract fixes every count: a crawl that
			// differs from its first-pass twin is a failure, not noise.
			probs = append(probs, sameOutcome(res, w.first[i], "first pass")...)
		}
		t.op(u.label, probs)
		p.add(res, len(u.sub.truth))
	}
	return p
}

// ---- bfs-federation ----

// bfsFederationSize: five federations of eight mixed-profile members at
// scale 0.003 (about 9.5k pages each), 10 ms simulated round trips, and a
// budget of 8000 requests that stops each crawl short of exhaustion.
var bfsFederationSize = bfsFederationParams{
	codes:     []string{"cl", "ju", "cn", "ok", "qa", "ed", "be", "in"},
	scale:     0.003,
	budget:    8000,
	latency:   10 * time.Millisecond,
	instances: 5,
}

type bfsFederationParams struct {
	codes     []string
	scale     float64
	budget    int
	latency   time.Duration
	instances int
}

// bfsFederation: BFS with the adaptive prefetch window and the default
// parse stage over multi-host federations under simulated latency.
type bfsFederation struct {
	seed  int64
	size  bfsFederationParams
	units []unit
	refs  []*sbcrawl.Result
}

func (w *bfsFederation) config(seed int64) sbcrawl.Config {
	return sbcrawl.Config{
		Strategy:    sbcrawl.StrategyBFS,
		Prefetch:    sbcrawl.PrefetchAuto,
		SimLatency:  w.size.latency,
		MaxRequests: w.size.budget,
		Seed:        seed,
	}
}

// refConfig is the same crawl with speculation and latency off: the
// pipelined result must equal it.
func (w *bfsFederation) refConfig(seed int64) sbcrawl.Config {
	cfg := w.config(seed)
	cfg.Prefetch, cfg.SimLatency = 0, 0
	return cfg
}

// timing: a federation crawl is long (over a second), so four kernel runs
// before each give its chunk a steadier speed reading.
func (w *bfsFederation) timing() timing { return timing{scaleWall: false, calPerCrawl: 4} }

func (w *bfsFederation) setup() error {
	w.units = w.units[:0]
	for k := 0; k < w.size.instances; k++ {
		seed := instanceSeed(w.seed, k)
		site, err := sbcrawl.GenerateFederation(w.size.codes, w.size.scale, seed)
		if err != nil {
			return err
		}
		w.units = append(w.units, unit{label: fmt.Sprintf("federation#%d", k), seed: seed, site: site})
	}
	return nil
}

func (w *bfsFederation) reference() error {
	w.refs = w.refs[:0]
	for i := range w.units {
		u := &w.units[i]
		sub, err := genFederationSubstrate(w.size.codes, w.size.scale, u.seed)
		if err != nil {
			return err
		}
		if err := sub.matches(u.site); err != nil {
			return err
		}
		u.sub = sub
		ref, err := sbcrawl.CrawlSite(u.site, w.refConfig(u.seed))
		if err != nil {
			return fmt.Errorf("reference crawl: %w", err)
		}
		if probs := checkResult(ref, sub.truth, w.size.budget); len(probs) > 0 {
			return fmt.Errorf("reference crawl fails its checks: %v", probs)
		}
		w.refs = append(w.refs, ref)
	}
	return nil
}

func (w *bfsFederation) pass(t *tally) passStats {
	var p passStats
	for i, u := range w.units {
		var res *sbcrawl.Result
		var err error
		// One chunk per federation crawl, a second or two.
		p.measure(i, w.timing().calPerCrawl, func() { res, err = sbcrawl.CrawlSite(u.site, w.config(u.seed)) })
		if err != nil {
			t.op(u.label, []string{err.Error()})
			continue
		}
		probs := checkResult(res, u.sub.truth, w.size.budget)
		probs = append(probs, sameOutcome(res, w.refs[i], "Prefetch=0 SimLatency=0 reference")...)
		t.op(u.label, probs)
		p.add(res, len(u.sub.truth))
	}
	return p
}

// ---- durable-fleet ----

// durableFleetSize: two instances of four profiles (eight sites), B = 600
// requests per site, checkpoints every 16 requests, 5% of URLs faulted.
var durableFleetSize = durableFleetParams{
	codes:      []string{"be", "ju", "ed", "ok"},
	scale:      0.01,
	instances:  2,
	budget:     600,
	checkpoint: 16,
	faultRate:  0.05,
}

type durableFleetParams struct {
	codes      []string
	scale      float64
	instances  int
	budget     int // B: the resume phase's budget; the write phase gets B/2
	checkpoint int
	faultRate  float64
}

// durableFleet: CrawlSites over sites sharing one store, in three phases —
// write (budget B/2), resume (budget B with Resume: the prefix replays from
// disk), done (the same Config again: done-records short-circuit) — on a
// fresh store directory per pass.
type durableFleet struct {
	seed      int64
	size      durableFleetParams
	scratch   *scratch
	units     []unit
	sites     []*sbcrawl.Site // the units' sites, as CrawlSites takes them
	storeRoot string
	refHalf   *sbcrawl.FleetResult
	refFull   *sbcrawl.FleetResult
	passes    int
	// resumeHits is the resume phase's replay-hit count in the first pass;
	// the determinism contract fixes it.
	resumeHits int
}

// phase names the three durable-fleet phases.
var phaseNames = [3]string{"write", "resume", "done"}

func (w *durableFleet) workers() int {
	n := runtime.NumCPU()
	if n > 2 {
		n = 2
	}
	return n
}

// config is phase ph's Config over the store at dir.
func (w *durableFleet) config(ph int, dir string) sbcrawl.Config {
	cfg := sbcrawl.Config{
		Strategy:        sbcrawl.StrategyBFS,
		MaxRequests:     w.size.budget,
		Seed:            w.seed,
		FaultRate:       w.size.faultRate,
		CheckpointEvery: w.size.checkpoint,
		StorePath:       dir,
		Resume:          ph > 0,
	}
	if ph == 0 {
		cfg.MaxRequests = w.size.budget / 2
	}
	return cfg
}

func (w *durableFleet) timing() timing { return timing{scaleWall: true, calPerCrawl: 1} }

func (w *durableFleet) setup() error {
	w.units, w.sites = w.units[:0], w.sites[:0]
	for k := 0; k < w.size.instances; k++ {
		seed := instanceSeed(w.seed, k)
		for _, code := range w.size.codes {
			site, err := sbcrawl.GenerateSite(code, w.size.scale, seed)
			if err != nil {
				return err
			}
			// CrawlSites derives each site's crawl seed from its index.
			i := len(w.units)
			w.units = append(w.units, unit{label: fmt.Sprintf("%s#%d", code, k), seed: fleet.DeriveSeed(w.seed, i), site: site})
			w.sites = append(w.sites, site)
		}
	}
	dir, err := w.scratch.fresh("fleet")
	w.storeRoot = dir
	return err
}

func (w *durableFleet) reference() error {
	for i := range w.units {
		u := &w.units[i]
		sub, err := genSubstrate(u.site.Code(), w.size.scale, instanceSeed(w.seed, i/len(w.size.codes)))
		if err != nil {
			return err
		}
		if err := sub.matches(u.site); err != nil {
			return err
		}
		u.sub = sub
	}
	// Fault-free crawls with no store: every durable phase must equal them.
	var err error
	for i, ref := range []**sbcrawl.FleetResult{&w.refHalf, &w.refFull} {
		cfg := w.config(i, "")
		cfg.StorePath, cfg.Resume, cfg.FaultRate, cfg.CheckpointEvery = "", false, 0, 0
		if *ref, err = sbcrawl.CrawlSites(w.sites, cfg, sbcrawl.FleetOptions{Workers: w.workers()}); err != nil {
			return fmt.Errorf("reference fleet: %w", err)
		}
		for j, so := range (*ref).Sites {
			if so.Err != nil || so.Result == nil {
				return fmt.Errorf("reference fleet: site %d: %v", j, so.Err)
			}
		}
	}
	return nil
}

func (w *durableFleet) pass(t *tally) passStats {
	p, _ := w.cycle(t)
	return p
}

// cycle runs the three phases on a fresh store directory, checks every
// site of every phase, and returns the pass with each phase's wall time.
func (w *durableFleet) cycle(t *tally) (passStats, cycleStats) {
	var p passStats
	var cs cycleStats
	w.passes++
	dir := filepath.Join(w.storeRoot, fmt.Sprintf("store-%d", w.passes))
	defer os.RemoveAll(dir)
	for ph := range phaseNames {
		var fr *sbcrawl.FleetResult
		var err error
		before := p.wall
		// The whole cycle is one chunk: a phase is too short to average GC.
		p.measure(0, w.timing().calPerCrawl, func() {
			fr, err = sbcrawl.CrawlSites(w.sites, w.config(ph, dir), sbcrawl.FleetOptions{Workers: w.workers()})
		})
		cs.phases[ph] = p.wall - before
		if err != nil {
			t.op(phaseNames[ph], []string{err.Error()})
			continue
		}
		ref := w.refHalf
		if ph > 0 {
			ref = w.refFull
		}
		hits, misses := 0, 0
		for i, so := range fr.Sites {
			label := phaseNames[ph] + "/" + w.units[i].label
			if so.Err != nil || so.Result == nil {
				t.op(label, []string{fmt.Sprintf("crawl failed: %v", so.Err)})
				continue
			}
			res := so.Result
			probs := checkResult(res, w.units[i].sub.truth, w.config(ph, dir).MaxRequests)
			probs = append(probs, sameOutcome(res, ref.Sites[i].Result, "fault-free storeless reference")...)
			if res.Faults != nil && res.Faults.FailedRequests != 0 {
				probs = append(probs, fmt.Sprintf("%d failed requests", res.Faults.FailedRequests))
			}
			if res.Store == nil {
				probs = append(probs, "no store stats")
			} else {
				hits += res.Store.ReplayHits
				misses += res.Store.ReplayMisses
				if ph == 2 && !res.Store.Completed {
					probs = append(probs, "done phase re-executed instead of short-circuiting")
				}
			}
			t.op(label, probs)
			p.add(res, len(w.units[i].sub.truth))
		}
		if ph == 1 {
			cs.resumeHits, cs.resumeMisses = hits, misses
			if w.passes == 1 {
				w.resumeHits = hits
			} else if hits != w.resumeHits {
				t.op("resume", []string{fmt.Sprintf("replay hits %d, first pass %d", hits, w.resumeHits)})
			}
		}
	}
	return p, cs
}

// ---- scratch space ----

// scratch is the run's private temp directory inside the working tree,
// removed at exit.
type scratch struct {
	dir string
	n   int
}

// scratchParent is where runs keep their temp directories, relative to the
// directory the benchmark runs from.
const scratchParent = ".bench_build"

func newScratch(parent string) (*scratch, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(parent, "run-")
	if err != nil {
		return nil, err
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &scratch{dir: abs}, nil
}

// fresh creates a new, empty subdirectory.
func (s *scratch) fresh(name string) (string, error) {
	s.n++
	dir := filepath.Join(s.dir, fmt.Sprintf("%s-%d", name, s.n))
	return dir, os.MkdirAll(dir, 0o755)
}

func (s *scratch) remove() { os.RemoveAll(s.dir) }

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
