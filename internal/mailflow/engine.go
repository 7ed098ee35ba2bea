package mailflow

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"tasterschoice/internal/ecosystem"
	"tasterschoice/internal/feeds"
	"tasterschoice/internal/obs"
	"tasterschoice/internal/oracle"
	"tasterschoice/internal/parallel"
	"tasterschoice/internal/randutil"
	"tasterschoice/internal/simclock"
	"tasterschoice/internal/symtab"
)

// Result is the output of a collection run: the ten feeds and the
// incoming-mail oracle.
type Result struct {
	// Feeds maps feed mnemonics (FeedNames) to the collected feeds.
	Feeds map[string]*feeds.Feed
	// Order is the canonical feed order (Table 1's row order).
	Order []string
	// Oracle holds incoming-mail volumes at the webmail provider.
	Oracle *oracle.Oracle
	// HumanReports is the total number of "this is spam" clicks.
	HumanReports int64
}

// UnknownFeedError reports a lookup of a feed name the result does not
// hold — a misconfigured mnemonic, or a hook that removed a feed.
type UnknownFeedError struct {
	Name string
}

func (e *UnknownFeedError) Error() string {
	return fmt.Sprintf("mailflow: unknown feed %q", e.Name)
}

// Feed returns the named feed. Unknown names panic with an
// *UnknownFeedError; Engine.Run recovers that panic and returns it as
// an ordinary error, so a configuration-reachable bad name fails the
// run instead of crashing the process. Callers outside a run can use
// Lookup for a non-panicking variant.
func (r *Result) Feed(name string) *feeds.Feed {
	f, err := r.Lookup(name)
	if err != nil {
		panic(err)
	}
	return f
}

// Lookup returns the named feed or an *UnknownFeedError.
func (r *Result) Lookup(name string) (*feeds.Feed, error) {
	f, ok := r.Feeds[name]
	if !ok {
		return nil, &UnknownFeedError{Name: name}
	}
	return f, nil
}

// BaseOrder returns the non-blacklist ("base") feeds in canonical
// order; the paper could crawl only domains occurring in these.
func (r *Result) BaseOrder() []string {
	var out []string
	for _, name := range r.Order {
		if r.Feeds[name].Kind != feeds.KindBlacklist {
			out = append(out, name)
		}
	}
	return out
}

// planChunkSize is how many campaigns are planned in parallel before
// their buffered output is replayed and the webmail chains drained. It
// bounds how many plans are buffered at once, and so the number of
// small campaigns' arrivals held in memory; it does not bound one
// campaign's buffer, which holds every time it drew — a mega-campaign
// buffers millions of arrivals on its own. Chunk boundaries only group
// work, never reorder it, so the size does not affect results.
const planChunkSize = 1024

// Engine runs collection over a generated world.
//
// The run is a chunked plan/merge pipeline. Workers claim and plan
// disjoint campaigns concurrently (see plan.go), each drawing only from
// its campaign's private RNG stream into its own plan; the engine
// replays the buffered runs serially in campaign ID order, then drains
// the queued webmail batches through per-domain chains, whose 64 fixed
// shards workers claim the same way (see webmail.go). Which worker
// handles a campaign or shard is left to timing, but what it computes
// depends only on the campaign ID or domain hash, and every merge
// walks a fixed order, so the output is byte-identical for every
// Config.Workers value and GOMAXPROCS setting; the golden tests pin
// this down.
type Engine struct {
	World *ecosystem.World
	Cfg   Config
	// OnFeeds, when set, is invoked with the freshly created feeds
	// before any observation is recorded — the hook for attaching
	// feeds.Tap subscription streams (see internal/feedsync).
	OnFeeds func(map[string]*feeds.Feed)
	// Metrics observes the run; the zero value is inert. Instruments
	// only count, so enabling them cannot change the output.
	Metrics Metrics
	// Tracer records a span per run phase when set. Simulations should
	// construct it with a simclock-derived clock so spans line up with
	// simulated time; nil disables tracing entirely.
	Tracer *obs.Tracer

	window simclock.Window
	// winStartN and winEndN are the window bounds as UnixNano.
	winStartN, winEndN int64
	res                *Result
	wm                 *webmail
	// syms is the world's shared symbol table; every domain and URL
	// the engine touches is interned here, always from serial code.
	syms *symtab.Table
	// feedArr holds the feeds in FeedNames order for indexed replay.
	feedArr [fHyb + 1]*feeds.Feed

	// mxExp[i][b] is honeypot i's arrivals-per-volume for botnet b.
	mxExp [3][]float64

	chaffRng  *randutil.RNG
	chaffZipf *randutil.Zipf

	// planBufs is the pool of reusable campaign plans (one per chunk
	// slot); nameBuf and timesBuf are scratch for the serial junk and
	// poison phases.
	planBufs []*campaignPlan
	nameBuf  []byte
	timesBuf []int64
}

// New creates an engine; Run may be called once.
func New(w *ecosystem.World, cfg Config) *Engine {
	return &Engine{World: w, Cfg: cfg, window: w.Config.Window}
}

// Run performs the whole collection: campaign observation at every
// collection point, typo and chaff pollution, poisoning, blacklist
// aggregation, and the oracle's benign-mail baseline.
//
// A feed lookup that fails during the run — possible when an OnFeeds
// hook tampers with the feed map, or a config names a feed that does
// not exist — is returned as an *UnknownFeedError rather than left to
// crash the process. Other panics propagate unchanged.
func (e *Engine) Run() (res *Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			if ufe, ok := p.(*UnknownFeedError); ok {
				res, err = nil, ufe
				return
			}
			panic(p)
		}
	}()
	if err := e.Cfg.Validate(); err != nil {
		return nil, err
	}
	if e.World.Syms == nil {
		return nil, errors.New("mailflow: world has no symbol table (build it with ecosystem.Generate)")
	}
	e.syms = e.World.Syms
	e.winStartN = e.window.Start.UnixNano()
	e.winEndN = e.window.End.UnixNano()
	e.res = &Result{
		Feeds: map[string]*feeds.Feed{
			"Hu":    feeds.New("Hu", feeds.KindHuman, false, false),
			"dbl":   feeds.New("dbl", feeds.KindBlacklist, false, false),
			"uribl": feeds.New("uribl", feeds.KindBlacklist, false, false),
			"mx1":   feeds.New("mx1", feeds.KindMXHoneypot, true, true),
			"mx2":   feeds.New("mx2", feeds.KindMXHoneypot, true, true),
			"mx3":   feeds.New("mx3", feeds.KindMXHoneypot, true, true),
			"Ac1":   feeds.New("Ac1", feeds.KindHoneyAccount, true, true),
			"Ac2":   feeds.New("Ac2", feeds.KindHoneyAccount, true, true),
			"Bot":   feeds.New("Bot", feeds.KindBotnet, true, true),
			"Hyb":   feeds.New("Hyb", feeds.KindHybrid, false, true),
		},
		Order:  append([]string(nil), FeedNames...),
		Oracle: oracle.New(oracle.PaperOracleWindow(e.window)),
	}
	if e.OnFeeds != nil {
		e.OnFeeds(e.res.Feeds)
	}
	for i, name := range FeedNames {
		f := e.res.Feed(name)
		f.Bind(e.syms)
		e.feedArr[i] = f
	}
	e.wm = newWebmail(&e.Cfg, e.window, e.res.Feed("Hu"), e.res.Oracle)
	e.wm.chaffWith = func(rng *randutil.RNG) (symtab.ID, bool) {
		d, _, ok := e.chaffIDWith(rng)
		return d, ok
	}

	root := randutil.New(e.Cfg.Seed)
	e.chaffRng = root.SplitNamed("chaff")
	chaffN := e.Cfg.ChaffTopN
	if chaffN <= 0 || chaffN > len(e.World.Benign) {
		chaffN = len(e.World.Benign)
	}
	if chaffN > 0 {
		e.chaffZipf = randutil.NewZipf(e.chaffRng, e.Cfg.ChaffZipfS, chaffN)
	}
	e.initExposures(root.SplitNamed("exposures"))

	e.phase("observeCampaigns", func() { e.observeCampaigns(parallel.Workers(e.Cfg.Workers)) })

	e.phase("typoTraffic", func() { e.typoTraffic(root.SplitNamed("typos")) })
	e.phase("honeypotJunk", func() { e.honeypotJunk(root.SplitNamed("hpjunk")) })
	e.phase("poison", func() { e.poison(root.SplitNamed("poison")) })
	e.phase("huJunk", func() { e.huJunk(root.SplitNamed("hujunk")) })
	e.phase("blacklistJunk", func() { e.blacklistJunk(root.SplitNamed("bljunk")) })
	e.phase("benignBaseline", e.benignBaseline)
	e.phase("restrictBlacklists", e.restrictBlacklists)

	e.res.HumanReports = e.wm.reports
	return e.res, nil
}

// phase runs fn under a tracer span; free when Tracer is nil.
func (e *Engine) phase(name string, fn func()) {
	sp := e.Tracer.Start(name)
	fn()
	sp.End()
}

// observeCampaigns runs the chunked plan/merge pipeline over every
// campaign: plan a chunk in parallel, replay its feed observations in
// campaign order, queue its webmail batches, drain the chains.
func (e *Engine) observeCampaigns(workers int) {
	camps := e.World.Campaigns
	nbufs := planChunkSize
	if len(camps) < nbufs {
		nbufs = len(camps)
	}
	if len(e.planBufs) < nbufs {
		e.planBufs = make([]*campaignPlan, nbufs)
		for i := range e.planBufs {
			e.planBufs[i] = new(campaignPlan)
		}
	}
	for lo := 0; lo < len(camps); lo += planChunkSize {
		hi := lo + planChunkSize
		if hi > len(camps) {
			hi = len(camps)
		}
		plans := e.planBufs[:hi-lo]
		parallel.ForEach(workers, hi-lo, func(i int) {
			plans[i].reset()
			e.planCampaign(plans[i], &camps[lo+i])
		})
		e.Metrics.CampaignsPlanned.Add(int64(hi - lo))
		var batches, messages int64
		for _, p := range plans {
			e.Metrics.Observations.Add(p.replay(&e.feedArr))
			batches += int64(len(p.batches))
			for _, b := range p.batches {
				messages += int64(len(b.times))
				e.wm.enqueue(b)
			}
		}
		e.Metrics.WebmailBatches.Add(batches)
		e.Metrics.WebmailMessages.Add(messages)
		e.Metrics.DrainDepth.Observe(float64(batches))
		// flush drains every queued batch before the next chunk reuses
		// the plan arenas the batch time-slices point into.
		e.wm.flush(workers)
	}
}

// initExposures draws the per-(honeypot, botnet) list-presence
// multipliers. A log-normal with mu = -sigma^2/2 has mean 1, so the
// configured base exposure is the expected value.
func (e *Engine) initExposures(rng *randutil.RNG) {
	for i := 0; i < 3; i++ {
		sigma := e.Cfg.MXSpreadSigma[i]
		e.mxExp[i] = make([]float64, len(e.World.Botnets))
		for b := range e.World.Botnets {
			mult := rng.LogNormal(-sigma*sigma/2, sigma)
			if i == 2 && e.World.Botnets[b].Monitored {
				mult *= e.Cfg.MX3MonitoredBoost
			}
			e.mxExp[i][b] = e.Cfg.MXExposure[i] * mult
		}
	}
}

// chaffIDWith draws a chaff domain (a benign domain weighted toward
// the popular ones, from the bounded chaff vocabulary) using the
// caller's RNG, returning its interned name and chaff-URL IDs. The
// Zipf table is read-only, so concurrent callers with distinct RNGs
// are safe.
func (e *Engine) chaffIDWith(rng *randutil.RNG) (d, url symtab.ID, ok bool) {
	if e.chaffZipf == nil {
		return 0, 0, false
	}
	b := &e.World.Benign[e.chaffZipf.NextWith(rng)]
	return b.Sym, b.URLSym, true
}

// uniformTimesNanos fills times with draws uniform over w, as packed
// UnixNano, consuming exactly one Float64 draw per time.
func uniformTimesNanos(rng *randutil.RNG, w simclock.Window, times []int64) {
	span := float64(w.Duration())
	startN := w.Start.UnixNano()
	for i := range times {
		times[i] = startN + int64(rng.Float64()*span)
	}
}

// drawTimes returns n times uniform over w in the engine's scratch
// buffer, for the serial phases; the slice is valid until the next call.
func (e *Engine) drawTimes(rng *randutil.RNG, w simclock.Window, n int) []int64 {
	e.timesBuf = slices.Grow(e.timesBuf[:0], n)[:n]
	uniformTimesNanos(rng, w, e.timesBuf)
	return e.timesBuf
}

// uniformTimesSortedInto returns n times uniform over w in ascending
// order, carved from p's time arena, in O(n) without sorting: with
// E_1..E_{n+1} i.i.d. Exp(1) and S_i their prefix sums, (S_1/S_{n+1},
// ..., S_n/S_{n+1}) has exactly the distribution of n sorted uniforms.
// The prefix sums are parked in the output slice as float64 bits until
// S_{n+1} is known, so no scratch buffer is needed.
func uniformTimesSortedInto(p *campaignPlan, rng *randutil.RNG, w simclock.Window, n int) []int64 {
	if n <= 0 {
		return nil
	}
	times := p.arena.alloc(n)
	acc := 0.0
	for i := range times {
		acc += rng.ExpFloat64()
		times[i] = int64(math.Float64bits(acc))
	}
	acc += rng.ExpFloat64()
	span := float64(w.Duration())
	startN := w.Start.UnixNano()
	for i, c := range times {
		times[i] = startN + int64(math.Float64frombits(uint64(c))/acc*span)
	}
	return times
}

// slotWindow clips an ad slot to the measurement window, returning the
// clipped window and the fraction of the slot it covers.
func (e *Engine) slotWindow(d *ecosystem.AdDomain) (simclock.Window, float64) {
	start, end := d.Start, d.End
	if start.Before(e.window.Start) {
		start = e.window.Start
	}
	if end.After(e.window.End) {
		end = e.window.End
	}
	if !end.After(start) {
		return simclock.Window{}, 0
	}
	frac := float64(end.Sub(start)) / float64(d.End.Sub(d.Start))
	return simclock.Window{Start: start, End: end}, frac
}

// stealthSplit divides a loud ad slot's clipped window into the
// stealth lead-in (webmail-only deliverability testing) and the blast
// phase. The lead runs from the slot's true start, so slots that began
// before the measurement window are already blasting on day zero.
func (e *Engine) stealthSplit(rng *randutil.RNG, slot *ecosystem.AdDomain,
	w simclock.Window) (lead, blast simclock.Window) {
	cfg := &e.Cfg
	leadDays := cfg.StealthLeadMinDays +
		rng.Float64()*(cfg.StealthLeadMaxDays-cfg.StealthLeadMinDays)
	leadDur := time.Duration(leadDays * 24 * float64(time.Hour))
	if max := slot.End.Sub(slot.Start) / 2; leadDur > max {
		leadDur = max
	}
	leadEnd := slot.Start.Add(leadDur)
	if leadEnd.Before(w.Start) {
		leadEnd = w.Start
	}
	if leadEnd.After(w.End) {
		leadEnd = w.End
	}
	return simclock.Window{Start: w.Start, End: leadEnd},
		simclock.Window{Start: leadEnd, End: w.End}
}

// hybInclusion returns the probability the hybrid feed's sources pick
// up a campaign: biased against the largest loud campaigns.
func (e *Engine) hybInclusion(c *ecosystem.Campaign) float64 {
	cfg := &e.Cfg
	switch c.Class {
	case ecosystem.ClassLoud:
		const vLo, vHi = 5e3, 3e5
		t := (math.Log(math.Max(c.Volume, vLo)) - math.Log(vLo)) /
			(math.Log(vHi) - math.Log(vLo))
		if t > 1 {
			t = 1
		}
		return cfg.HybLoudInclusionLow + t*(cfg.HybLoudInclusionHigh-cfg.HybLoudInclusionLow)
	case ecosystem.ClassTiny:
		return cfg.HybTinyInclusion
	default:
		return cfg.HybQuietInclusion
	}
}

// blacklistClassProb returns the listing probability for a slot.
func blacklistClassProb(bc *BlacklistConfig, c *ecosystem.Campaign, slot *ecosystem.AdDomain) float64 {
	var p float64
	switch {
	case c.Class == ecosystem.ClassLoud && c.Program >= 0:
		p = bc.ListProbLoud
	case c.Class == ecosystem.ClassLoud:
		p = bc.ListProbOtherLoud
	case c.Class == ecosystem.ClassTiny:
		p = bc.ListProbTiny
	case c.Program >= 0:
		p = bc.ListProbQuiet
	default:
		p = bc.ListProbOtherQuiet
	}
	if slot.Redirector {
		// Blacklist operators are reluctant to list popular benign
		// domains even when abused as redirectors.
		p *= 0.08
	}
	return p
}

// typoTraffic delivers stray legitimate mail to the MX honeypots
// (sender typos, dummy signup addresses) — their benign-domain
// contamination.
func (e *Engine) typoTraffic(rng *randutil.RNG) {
	days := e.window.Duration().Hours() / 24
	for _, name := range []string{"mx1", "mx2", "mx3"} {
		n := rng.Poisson(e.Cfg.MXTypoRate * days)
		f := e.res.Feed(name)
		for _, t := range e.drawTimes(rng, e.window, n) {
			if cd, curl, ok := e.chaffIDWith(e.chaffRng); ok {
				f.ObserveID(t, cd, curl)
			}
		}
	}
}

// honeypotJunk adds each honeypot-style feed's trickle of one-off
// junk domains (misparsed URLs, garbage hostnames in spam).
func (e *Engine) honeypotJunk(rng *randutil.RNG) {
	days := e.window.Duration().Hours() / 24
	for _, name := range []string{"mx1", "mx2", "mx3", "Ac1", "Ac2"} {
		n := rng.Poisson(e.Cfg.HoneypotJunkPerDay * days)
		f := e.res.Feed(name)
		for _, t := range e.drawTimes(rng, e.window, n) {
			// Mostly garbage hostnames; occasionally a real but
			// obscure registered domain (mis-scraped signatures,
			// stray URLs) — each feed's private tail of exclusive
			// live domains.
			var d symtab.ID
			if len(e.World.Obscure) > 0 && rng.Bool(0.15) {
				d = e.World.ObscureSyms[rng.Intn(len(e.World.Obscure))]
			} else {
				ln := 6 + rng.Intn(10)
				e.nameBuf = rng.AppendAlphaNum(e.nameBuf[:0], ln)
				e.nameBuf = append(e.nameBuf, ".com"...)
				d = e.syms.InternBytes(e.nameBuf)
			}
			f.ObserveID(t, d, e.syms.AutoURL(d))
		}
	}
}

// poison injects the Rustock episode into the Bot and mx2 feeds.
func (e *Engine) poison(rng *randutil.RNG) {
	if e.World.Poisoner() == nil {
		return
	}
	pw := e.World.PoisonWindow()
	if !pw.End.After(pw.Start) {
		return
	}
	inject := func(feed string, arrivals int, fresh float64, stream string) {
		src := newPoisonSourceSyms(rng.SplitNamed(stream), fresh,
			e.Cfg.PoisonLiveHitProb, e.syms, e.World.ObscureSyms)
		f := e.res.Feed(feed)
		tRng := rng.SplitNamed(stream + "-times")
		for _, t := range e.drawTimes(tRng, pw, arrivals) {
			d := src.NextID()
			f.ObserveID(t, d, e.syms.AutoURL(d))
		}
	}
	inject("Bot", e.Cfg.PoisonBotArrivals, e.Cfg.PoisonFreshProbBot, "bot")
	inject("mx2", e.Cfg.PoisonMX2Arrivals, e.Cfg.PoisonFreshProbMX2, "mx2")
}

// huJunk adds bogus human reports (typo domains, garbage) to Hu.
func (e *Engine) huJunk(rng *randutil.RNG) {
	n := rng.Poisson(e.Cfg.HuJunkReports)
	f := e.res.Feed("Hu")
	for _, t := range e.drawTimes(rng, e.window, n) {
		ln := 5 + rng.Intn(9)
		e.nameBuf = rng.AppendAlphaNum(e.nameBuf[:0], ln)
		e.nameBuf = append(e.nameBuf, ".com"...)
		f.ObserveID(t, e.syms.InternBytes(e.nameBuf), 0)
	}
}

// blacklistJunk adds each blacklist's rare benign-domain mistakes.
// Unlike chaff, these are mostly obscure benign domains — a blacklist
// operator does not accidentally list the global top sites.
func (e *Engine) blacklistJunk(rng *randutil.RNG) {
	benign := e.World.Benign
	if len(benign) == 0 {
		return
	}
	// Draw from the lower ranks of the chaff vocabulary: popular
	// enough to co-occur in the base feeds (so they survive the
	// blacklist restriction, as the paper's contaminants did), but
	// not the global top sites whose volume would dominate.
	hi := e.Cfg.ChaffTopN
	if hi <= 0 || hi > len(benign) {
		hi = len(benign)
	}
	lo := hi / 5
	lists := []struct {
		name string
		bc   *BlacklistConfig
	}{{"dbl", &e.Cfg.DBL}, {"uribl", &e.Cfg.URIBL}}
	for _, l := range lists {
		f := e.res.Feed(l.name)
		n := rng.Poisson(l.bc.JunkBenign)
		for _, t := range e.drawTimes(rng, e.window, n) {
			d := benign[lo+rng.Intn(hi-lo)].Sym
			f.ObserveOnceID(t, d)
		}
	}
}

// benignBaseline adds legitimate-mail volume for benign domains to the
// oracle: popular domains appear in enormous amounts of ordinary mail,
// which is why un-excluded Alexa/ODP domains dominate feed volume.
func (e *Engine) benignBaseline() {
	for i := range e.World.Benign {
		b := &e.World.Benign[i]
		n := int64(e.Cfg.BenignMailTop / math.Pow(float64(b.Rank+1), e.Cfg.BenignMailZipfS))
		e.res.Oracle.AddBulkID(b.Sym, n)
	}
}

// restrictBlacklists applies the paper's methodology: blacklist entries
// that never co-occur in a base feed could not be crawled and are
// dropped from the dataset.
func (e *Engine) restrictBlacklists() {
	base := e.res.BaseOrder()
	baseFeeds := make([]*feeds.Feed, len(base))
	for i, name := range base {
		baseFeeds[i] = e.res.Feed(name)
	}
	keep := func(d symtab.ID) bool {
		for _, f := range baseFeeds {
			if f.HasID(d) {
				return true
			}
		}
		return false
	}
	for _, bl := range []string{"dbl", "uribl"} {
		e.res.Feed(bl).RetainID(keep)
	}
}
