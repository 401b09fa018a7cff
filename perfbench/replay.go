package main

// Layer replays: inputs captured at the Env.Fetcher and Checkpointer seams
// of the first traced round, run again through each layer's exported
// functions with nothing else in the way.

import (
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"sbcrawl/internal/classify"
	"sbcrawl/internal/core"
	"sbcrawl/internal/dom"
	"sbcrawl/internal/fetch"
	"sbcrawl/internal/learn"
	"sbcrawl/internal/sitegen"
	"sbcrawl/internal/store"
	"sbcrawl/internal/urlutil"
)

// replayMin is how long each timed replay repeats its input at least.
const replayMin = 300 * time.Millisecond

// repeatTimed runs fn until replayMin has passed (at least once) and
// returns the mean time per run, plus the bytes the first run allocated.
func repeatTimed(fn func()) (per time.Duration, allocBytes uint64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	fn()
	first := time.Since(t0)
	runtime.ReadMemStats(&m1)
	total, n := first, 1
	for total < replayMin {
		t := time.Now()
		fn()
		total += time.Since(t)
		n++
	}
	return total / time.Duration(n), m1.TotalAlloc - m0.TotalAlloc
}

// timedSpan records one replay as a span and times it.
func timedSpan(tr *tracer, name string, fn func()) (time.Duration, uint64) {
	id := tr.begin(name, -1, -1)
	defer tr.end(id)
	return repeatTimed(fn)
}

// linkPage is one fetched page in crawl order, with the new in-scope links
// the engine would have passed on from it.
type linkPage struct {
	url   string
	class int
	links []dom.Link
}

// capturedCrawl is one crawl's captured input.
type capturedCrawl struct {
	c     *envCrawl
	pages []linkPage
}

// linkStream rebuilds, from the captured exchanges, the pages a crawl
// ingested and the links it passed to its policy: new (not yet seen), in
// scope, not blocklisted, in crawl order. Failed attempts the retry layer
// absorbed are skipped.
func linkStream(root string, exs []exchange) []linkPage {
	scope, err := urlutil.NewScope(root)
	if err != nil {
		return nil
	}
	mimes := urlutil.DefaultTargetSet()
	seen := map[string]bool{root: true}
	var out []linkPage
	var raw []dom.Link
	for _, ex := range exs {
		if ex.head || ex.err != nil || fetch.RetryableStatus(ex.resp.Status) {
			continue
		}
		seen[ex.url] = true
		r := ex.resp
		ok := r.Status >= 200 && r.Status < 300 && !r.Interrupted
		switch {
		case isPage(r):
			base, err := url.Parse(ex.url)
			if err != nil {
				continue
			}
			pg := linkPage{url: ex.url, class: classify.ClassHTML}
			raw = dom.ExtractLinksAppend(raw[:0], r.Body)
			inPage := make(map[string]bool, len(raw))
			for _, l := range raw {
				abs := urlutil.Normalize(base, l.URL)
				if abs == "" || inPage[abs] || seen[abs] || !scope.Contains(abs) || urlutil.HasBlockedExtension(abs) {
					continue
				}
				inPage[abs] = true
				seen[abs] = true
				l.URL = abs
				pg.links = append(pg.links, l)
			}
			out = append(out, pg)
		case ok && mimes.Contains(r.MIME):
			out = append(out, linkPage{url: ex.url, class: classify.ClassTarget})
		default:
			out = append(out, linkPage{url: ex.url, class: classify.ClassNeither})
		}
	}
	return out
}

// isPage reports a response the engine parses for links: a 2xx HTML body
// that was not interrupted.
func isPage(r fetch.Response) bool {
	return r.Status >= 200 && r.Status < 300 && !r.Interrupted && urlutil.IsHTML(r.MIME)
}

// truthHead labels a URL from the site's ground truth, the HEAD probe the
// classifier's initial phase would have spent.
func truthHead(sub *substrate) classify.HeadFunc {
	return func(u string) int {
		pg, ok := sub.lookup(u)
		if !ok {
			return classify.ClassNeither
		}
		switch pg.Kind {
		case sitegen.KindHTML:
			return classify.ClassHTML
		case sitegen.KindTarget:
			return classify.ClassTarget
		}
		return classify.ClassNeither
	}
}

// replays runs every layer replay over the first traced round's captures
// and adds their metrics to m.
func replays(t *tally, tr *tracer, m map[string]metric, crawls []envCrawl, round []*crawlRun, sc *scratch) {
	var caps []capturedCrawl
	var bodies [][]byte
	var records []fetch.Response
	var checkpoints []core.Checkpoint
	for i, r := range round {
		if r == nil || len(r.exchanges) == 0 && len(r.checkpoints) == 0 {
			continue
		}
		c := &crawls[i]
		caps = append(caps, capturedCrawl{c: c, pages: linkStream(c.sub.root, r.exchanges)})
		for _, ex := range r.exchanges {
			if ex.err != nil {
				continue
			}
			records = append(records, ex.resp)
			if !ex.head && isPage(ex.resp) {
				bodies = append(bodies, ex.resp.Body)
			}
		}
		checkpoints = append(checkpoints, r.checkpoints...)
	}

	// dom: the captured HTML bodies through the engine's extractor.
	var buf []dom.Link
	per, alloc := timedSpan(tr, "replay.dom", func() {
		for _, b := range bodies {
			buf = dom.ExtractLinksAppend(buf[:0], b)
		}
	})
	m["dom.pages"] = metric{float64(len(bodies)), "count"}
	m["dom.extract_us_per_page"] = metric{usPer(per, len(bodies)), "us"}
	m["dom.alloc_kb_per_page"] = metric{kbPer(alloc, len(bodies)), "KB"}

	// actions: Algorithm 1 over the links the crawl fed it — new, in
	// scope, not a ground-truth target — in crawl order.
	links, actions := -1, -1
	var unsteady []string
	per, alloc = timedSpan(tr, "replay.actions", func() {
		l0, a0 := links, actions
		links, actions = 0, 0
		defer func() {
			if l0 >= 0 && (links != l0 || actions != a0) {
				unsteady = append(unsteady, fmt.Sprintf("links/actions %d/%d, first repetition %d/%d", links, actions, l0, a0))
			}
		}()
		for _, cc := range caps {
			ai := core.NewActionIndex(core.ActionIndexConfig{Seed: cc.c.seed})
			for _, pg := range cc.pages {
				for _, l := range pg.links {
					if cc.c.sub.truth[l.URL] {
						continue
					}
					ai.ActionFor(l.TagPath)
					links++
				}
			}
			actions += ai.NumActions()
		}
	})
	t.op("replay.actions", unsteady)
	m["actions.links"] = metric{float64(links), "count"}
	m["actions.count"] = metric{float64(actions), "count"}
	m["actions.action_for_us_per_link"] = metric{usPer(per, links), "us"}
	m["actions.alloc_kb_per_link"] = metric{kbPer(alloc, links), "KB"}

	// classify: the online URL classifier over every new link, with a
	// ground-truth HEAD for its initial phase.
	classified := 0
	per, _ = timedSpan(tr, "replay.classify", func() {
		classified = 0
		for _, cc := range caps {
			o := classify.NewOnline(classify.Config{Model: learn.NewModel("LR"), Head: truthHead(cc.c.sub)})
			for _, pg := range cc.pages {
				o.Observe(pg.url, pg.class)
				for _, l := range pg.links {
					o.Classify(classify.LinkContext{
						URL:             l.URL,
						AnchorText:      l.AnchorText,
						TagPath:         l.TagPath.String(),
						SurroundingText: l.SurroundingText,
					})
					classified++
				}
			}
		}
	})
	m["classify.us_per_link"] = metric{usPer(per, classified), "us"}

	// codec: replay records and checkpoints.
	blobs := make([][]byte, len(records))
	per, _ = timedSpan(tr, "replay.codec.encode", func() {
		for i, r := range records {
			blobs[i], _ = fetch.EncodeResponse(r)
		}
	})
	m["codec.encode_ns_per_record"] = metric{nsPer(per, len(records)), "ns"}
	per, _ = timedSpan(tr, "replay.codec.decode", func() {
		for _, b := range blobs {
			fetch.DecodeResponse(b)
		}
	})
	m["codec.decode_ns_per_record"] = metric{nsPer(per, len(blobs)), "ns"}
	ckptBytes := 0
	for i := range checkpoints {
		ckptBytes += len(core.EncodeCheckpoint(&checkpoints[i]))
	}
	m["codec.checkpoint_bytes"] = metric{ratio(ckptBytes, len(checkpoints)), "bytes"}

	storeReplay(tr, m, records, blobs, sc)
}

// storeReplay writes the captured responses to a scratch store in group
// commits, closes it, reopens it (index rebuild), and reads every record
// back. Three rounds on fresh directories; each figure is their median.
func storeReplay(tr *tracer, m map[string]metric, records []fetch.Response, blobs [][]byte, sc *scratch) {
	const batch = 64
	kvs := make([]store.KV, len(blobs))
	encoded := 0
	for i, b := range blobs {
		key := records[i].URL
		if records[i].Body == nil {
			key = "h|" + key
		}
		kvs[i] = store.KV{Key: fmt.Sprintf("%d|%s", i, key), Val: b}
		encoded += len(b)
	}
	var put, get, open, closeT, disk []float64
	for round := 0; round < 3; round++ {
		dir, err := sc.fresh("replay-store")
		if err != nil {
			continue
		}
		id := tr.begin("replay.store", -1, -1)
		st, err := store.Open(dir)
		if err != nil {
			tr.end(id)
			continue
		}
		t0 := time.Now()
		for i := 0; i < len(kvs); i += batch {
			st.PutBatch(kvs[i:min(i+batch, len(kvs))])
		}
		st.Sync()
		put = append(put, usPer(time.Since(t0), len(kvs)))
		t0 = time.Now()
		st.Close()
		closeT = append(closeT, ms(time.Since(t0)))
		t0 = time.Now()
		st, err = store.Open(dir)
		open = append(open, ms(time.Since(t0)))
		if err == nil {
			t0 = time.Now()
			for _, kv := range kvs {
				st.Get(kv.Key)
			}
			get = append(get, usPer(time.Since(t0), len(kvs)))
			st.Close()
		}
		tr.end(id)
		disk = append(disk, float64(dirBytes(dir))/float64(max(encoded, 1)))
		os.RemoveAll(dir)
	}
	m["store.put_batch_us_per_record"] = metric{median(put), "us"}
	m["store.get_us_per_record"] = metric{median(get), "us"}
	m["store.open_ms"] = metric{median(open), "ms"}
	m["store.close_ms"] = metric{median(closeT), "ms"}
	m["store.disk_bytes_per_response_byte"] = metric{median(disk), "ratio"}
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}

func kbPer(b uint64, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(b) / 1024 / float64(n)
}

func nsPer(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(n)
}
