package gmeansmr

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"time"

	"gmeansmr/internal/core"
	"gmeansmr/internal/criteria"
	"gmeansmr/internal/dfs"
	"gmeansmr/internal/kmeansmr"
	"gmeansmr/internal/lloyd"
	"gmeansmr/internal/mr"
	"gmeansmr/internal/mrdist"
	"gmeansmr/internal/obs"
	"gmeansmr/internal/seqgmeans"
	"gmeansmr/internal/xmeans"
)

// Algorithm selects which k-discovery algorithm a Clusterer runs. All four
// produce the same Result shape, so the paper's contenders can be swapped
// behind one call site.
type Algorithm string

// Selectable algorithms.
const (
	// AlgorithmGMeansMR is the paper's contribution: G-means on MapReduce,
	// cost ∝ n·k. The default.
	AlgorithmGMeansMR Algorithm = "gmeans-mr"
	// AlgorithmSeqGMeans is the original in-memory G-means of Hamerly &
	// Elkan — the algorithm the paper adapted.
	AlgorithmSeqGMeans Algorithm = "seq-gmeans"
	// AlgorithmXMeans is X-means (Pelleg & Moore), the BIC-driven
	// k-estimator from the paper's related work. In-memory.
	AlgorithmXMeans Algorithm = "xmeans"
	// AlgorithmMultiK is the paper's baseline: multi-k-means over a range
	// of candidate k (cost ∝ n·k²) followed by a selection criterion.
	AlgorithmMultiK Algorithm = "multik"
)

// Backend selects the MapReduce execution backend of the MR algorithms.
type Backend string

// Selectable backends.
const (
	// BackendLocal executes tasks on in-process goroutine pools — the
	// engine's reference implementation. The default.
	BackendLocal Backend = "local"
	// BackendProc executes tasks on worker subprocesses, one per simulated
	// cluster node, scheduled over HTTP by internal/mrdist with straggler
	// speculation and retry around worker failure. Centers, sizes and job
	// counters are pinned bit-identical to BackendLocal. The workers are
	// spawned by re-executing the current binary, so main must call
	// mrdist.MaybeWorker first thing (the shipped CLIs do).
	BackendProc Backend = "proc"
)

// Criterion selects how AlgorithmMultiK picks k from the per-candidate
// quality curve.
type Criterion string

// Selection criteria for AlgorithmMultiK.
const (
	// CriterionElbow picks the knee of the WCSS curve. The default; the
	// only criterion that needs no point-level pass.
	CriterionElbow Criterion = "elbow"
	// CriterionJump applies the jump method (transformed distortion).
	CriterionJump Criterion = "jump"
	// CriterionSilhouette maximizes the sampled average silhouette.
	CriterionSilhouette Criterion = "silhouette"
	// CriterionBIC maximizes the Bayesian Information Criterion.
	CriterionBIC Criterion = "bic"
)

// Progress is one observability event of a running Clusterer. MR G-means
// emits one per G-means round; the other algorithms emit per round,
// iteration or cluster test. Events are delivered synchronously on the
// driver goroutine — a slow callback slows the run.
type Progress struct {
	// Algorithm identifies the emitting run.
	Algorithm Algorithm
	// Round is the 1-based round / iteration / test number.
	Round int
	// K is the number of centers discovered (or currently held) so far.
	// Multi-k-means maintains every candidate k at once and reports zero.
	K int
	// Active is the number of clusters still under test (MR and sequential
	// G-means; zero elsewhere).
	Active int
	// Strategy names the phase: for MR G-means "TestClusters" for a
	// tested round, "capped" for a round that hit WithMaxK and "merge" for
	// the closing merge; the algorithm name otherwise.
	Strategy string
	// Counters snapshots the engine's cumulative cost accounting at event
	// time (MR algorithms only; nil elsewhere).
	Counters map[string]int64
	// Duration is the wall time of this round alone, when the algorithm
	// tracks it — never a cumulative total. Every emitting algorithm uses
	// the same per-round semantics (MR G-means rounds, multi-k-means
	// iterations including their driver-side center updates, the merge
	// round), so durations from different algorithms chart comparably.
	Duration time.Duration
	// Phases breaks Duration down by round phase (MR G-means only):
	// "kmeans" (the first k-means pass), "kfnc" (the last k-means pass,
	// which also places the principal children: the paper's
	// KMeansAndFindNewCenters step) and "test" (the normality test); nil
	// elsewhere.
	Phases map[string]time.Duration
}

// Result.Counters keys for the cost quantities of the paper's model.
// Further engine counters (reduce records, shuffle bytes, ...) appear
// under their internal names; these four are the ones callers typically
// read.
const (
	// CounterDatasetReads records whole-dataset scan passes — the paper's
	// dominant I/O cost unit (O(log₂ k) reads for MR G-means vs one per
	// iteration for multi-k-means).
	CounterDatasetReads = "dfs.dataset.reads"
	// CounterDistances counts point-to-center distance computations, the
	// unit of the paper's computation-cost model.
	CounterDistances = kmeansmr.CounterDistances
	// CounterADTests counts Anderson–Darling test executions.
	CounterADTests = core.CounterADTests
	// CounterShuffleBytes measures the MapReduce shuffle volume in bytes.
	CounterShuffleBytes = mr.CounterShuffleBytes
)

// MetricBackendFallbacks counts runs that downgraded from the proc
// backend to the local backend under WithBackendFallback. It ticks on
// the WithObserver registry.
const MetricBackendFallbacks = "gmeansmr_backend_fallbacks_total"

// config is the resolved option set of a Clusterer.
type config struct {
	algorithm   Algorithm
	backend     Backend
	fallback    bool
	nodes       int
	alpha       float64
	maxK        int
	maxIter     int
	mergeRadius float64
	seed        int64
	splitSize   int
	kMin        int
	kMax        int
	kStep       int
	multiIters  int
	criterion   Criterion
	progress    func(Progress)
	traceW      io.Writer
	observer    *obs.Registry

	err error // first option error, surfaced by New
}

// Option configures a Clusterer. Options validate eagerly where possible;
// an invalid value surfaces as an error from New.
type Option func(*config)

// WithAlgorithm selects the clustering algorithm (default AlgorithmGMeansMR).
func WithAlgorithm(a Algorithm) Option {
	return func(c *config) {
		switch a {
		case AlgorithmGMeansMR, AlgorithmSeqGMeans, AlgorithmXMeans, AlgorithmMultiK:
			c.algorithm = a
		default:
			c.setErr(fmt.Errorf("gmeansmr: unknown algorithm %q", a))
		}
	}
}

// WithBackend selects the MapReduce execution backend (default
// BackendLocal). Ignored by the in-memory algorithms.
func WithBackend(b Backend) Option {
	return func(c *config) {
		switch b {
		case "", BackendLocal:
			c.backend = BackendLocal
		case BackendProc:
			c.backend = BackendProc
		default:
			c.setErr(fmt.Errorf("gmeansmr: unknown backend %q", b))
		}
	}
}

// WithBackendFallback lets a BackendProc run degrade gracefully: when
// the distributed backend is unavailable — its workers failed to start,
// or every worker died mid-run — the run restarts on BackendLocal
// instead of failing, with the reason logged and counted on the
// WithObserver registry (MetricBackendFallbacks). Only backend
// unavailability triggers the downgrade; task errors, invalid input and
// context cancellation still fail the run. No effect on BackendLocal.
func WithBackendFallback() Option {
	return func(c *config) { c.fallback = true }
}

// WithNodes sets the simulated MapReduce cluster size (default 4, the
// paper's testbed). Ignored by the in-memory algorithms.
func WithNodes(n int) Option {
	return func(c *config) {
		if n <= 0 {
			c.setErr(fmt.Errorf("gmeansmr: nodes must be positive, got %d", n))
			return
		}
		c.nodes = n
	}
}

// WithAlpha sets the Anderson–Darling significance level used by both
// G-means variants (default 0.0001, the strict level of the original
// G-means paper).
func WithAlpha(a float64) Option {
	return func(c *config) {
		if a < 0 || a >= 1 || math.IsNaN(a) {
			c.setErr(fmt.Errorf("gmeansmr: alpha must be in [0,1), got %g", a))
			return
		}
		c.alpha = a
	}
}

// WithMaxK stops splitting once this many centers exist.
func WithMaxK(k int) Option {
	return func(c *config) {
		if k < 0 {
			c.setErr(fmt.Errorf("gmeansmr: MaxK must be non-negative, got %d", k))
			return
		}
		c.maxK = k
	}
}

// WithMaxIterations caps the driver rounds of the iterative algorithms.
func WithMaxIterations(n int) Option {
	return func(c *config) {
		if n < 0 {
			c.setErr(fmt.Errorf("gmeansmr: MaxIterations must be non-negative, got %d", n))
			return
		}
		c.maxIter = n
	}
}

// WithMergeRadius enables the post-processing merge of final centers
// closer than r — the paper's proposed remedy for over-estimated k. Pass
// MergeAuto to derive the radius from the discovered centers. Negative
// values other than MergeAuto are rejected.
func WithMergeRadius(r float64) Option {
	return func(c *config) {
		if err := validateMergeRadius(r); err != nil {
			c.setErr(err)
			return
		}
		c.mergeRadius = r
	}
}

// WithSeed makes the run deterministic.
func WithSeed(s int64) Option { return func(c *config) { c.seed = s } }

// WithSplitSize pins the simulated DFS split size in bytes. Zero (the
// default) right-sizes splits from the staged dataset so every map slot
// gets a few tasks.
func WithSplitSize(bytes int) Option {
	return func(c *config) {
		if bytes < 0 {
			c.setErr(fmt.Errorf("gmeansmr: split size must be non-negative, got %d", bytes))
			return
		}
		c.splitSize = bytes
	}
}

// WithKRange sets the candidate k range of AlgorithmMultiK (default
// 1..16 step 1). At run time the upper bound is clamped to the dataset's
// point count, since no candidate can seed more centers than there are
// points.
func WithKRange(min, max, step int) Option {
	return func(c *config) {
		if min < 1 || max < min || step < 1 {
			c.setErr(fmt.Errorf("gmeansmr: invalid k range [%d,%d] step %d", min, max, step))
			return
		}
		c.kMin, c.kMax, c.kStep = min, max, step
	}
}

// WithMultiKIterations sets the number of chained k-means jobs
// AlgorithmMultiK runs (default 10, as in the paper).
func WithMultiKIterations(n int) Option {
	return func(c *config) {
		if n < 1 {
			c.setErr(fmt.Errorf("gmeansmr: multi-k iterations must be positive, got %d", n))
			return
		}
		c.multiIters = n
	}
}

// WithCriterion selects how AlgorithmMultiK picks k (default
// CriterionElbow). Criteria other than elbow need point-level access and
// materialize the staged dataset once.
func WithCriterion(cr Criterion) Option {
	return func(c *config) {
		switch cr {
		case CriterionElbow, CriterionJump, CriterionSilhouette, CriterionBIC:
			c.criterion = cr
		default:
			c.setErr(fmt.Errorf("gmeansmr: unknown criterion %q", cr))
		}
	}
}

// WithProgress registers an observer for per-round Progress events.
func WithProgress(fn func(Progress)) Option {
	return func(c *config) { c.progress = fn }
}

// WithTrace records a span trace of each Run — driver phases, rounds,
// MapReduce phases and per-task spans — and writes it to w in Chrome
// trace-event format when the run completes (load the file in
// chrome://tracing or https://ui.perfetto.dev). Spans are batch-level
// only, never per record.
func WithTrace(w io.Writer) Option {
	return func(c *config) {
		if w == nil {
			c.setErr(fmt.Errorf("gmeansmr: WithTrace requires a non-nil writer"))
			return
		}
		c.traceW = w
	}
}

// WithObserver registers a metrics registry the run ticks: per-round and
// per-phase latency histograms, round counters, an active-clusters gauge.
// The same registry can back a /metrics endpoint (see Registry and
// cmd/gmeans -debug-addr).
func WithObserver(r *Registry) Option {
	return func(c *config) {
		if r == nil {
			c.setErr(fmt.Errorf("gmeansmr: WithObserver requires a non-nil registry"))
			return
		}
		c.observer = r
	}
}

func (c *config) setErr(err error) {
	if c.err == nil {
		c.err = err
	}
}

func validateMergeRadius(r float64) error {
	if math.IsNaN(r) || (r < 0 && r != MergeAuto) {
		return fmt.Errorf("gmeansmr: merge radius must be non-negative or MergeAuto, got %g", r)
	}
	return nil
}

// emit delivers a progress event to the configured observer, stamping the
// algorithm.
func (c *config) emit(ev Progress) {
	if c.progress == nil {
		return
	}
	ev.Algorithm = c.algorithm
	c.progress(ev)
}

// Clusterer is the long-running training engine of the package: construct
// one with New, then Run it against a DataSource under a context. A
// Clusterer is immutable and safe to reuse across runs.
type Clusterer struct {
	cfg config
}

// New builds a Clusterer from functional options, validating them. The
// zero-option Clusterer runs MR G-means with the paper's configuration:
// α=0.0001 Anderson–Darling, two k-means passes per round, a 4-node
// simulated cluster.
func New(opts ...Option) (*Clusterer, error) {
	cfg := config{
		algorithm: AlgorithmGMeansMR,
		criterion: CriterionElbow,
		kMin:      1,
		kMax:      16,
		kStep:     1,
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.err != nil {
		return nil, cfg.err
	}
	return &Clusterer{cfg: cfg}, nil
}

// Run executes the configured algorithm over the points of src. The
// context cancels or deadlines the run: MR algorithms abort within one
// MapReduce wave, in-memory algorithms between rounds, both returning an
// error wrapping ctx.Err().
//
// Result.Assignment is populated when the points are available in memory
// (FromPoints sources, and the in-memory algorithms which materialize
// their input); it is nil when an MR algorithm ran over a streaming
// source, because computing it would require a second pass.
func (c *Clusterer) Run(ctx context.Context, src DataSource) (*Result, error) {
	if src == nil {
		return nil, fmt.Errorf("gmeansmr: nil DataSource")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// One span recorder per run (the Clusterer itself is immutable and
	// reusable); it only exists when a trace writer asked for it, so
	// untraced runs thread a nil *Trace whose spans cost a pointer test.
	var tr *obs.Trace
	if c.cfg.traceW != nil {
		tr = obs.NewTrace()
	}
	runSpan := tr.StartSpan("clusterer-run", "run").SetArg("algorithm", string(c.cfg.algorithm))
	res, err := c.dispatch(ctx, src, tr)
	runSpan.End()
	if werr := c.writeTrace(tr); werr != nil && err == nil {
		return nil, werr
	}
	return res, err
}

func (c *Clusterer) dispatch(ctx context.Context, src DataSource, tr *obs.Trace) (*Result, error) {
	switch c.cfg.algorithm {
	case AlgorithmSeqGMeans:
		return c.runSeqGMeans(ctx, src)
	case AlgorithmXMeans:
		return c.runXMeans(ctx, src)
	case AlgorithmMultiK:
		return c.withFallback(ctx, src, tr, c.runMultiK)
	default:
		return c.withFallback(ctx, src, tr, c.runGMeansMR)
	}
}

// withFallback runs an MR algorithm on the configured backend and, when
// WithBackendFallback is set and the proc backend reports itself
// unavailable, restages and reruns the whole algorithm on the local
// backend. A full rerun (not a mid-run switch) keeps the cost counters
// honest: they describe exactly one complete execution.
func (c *Clusterer) withFallback(ctx context.Context, src DataSource, tr *obs.Trace, run func(context.Context, DataSource, *obs.Trace, Backend) (*Result, error)) (*Result, error) {
	res, err := run(ctx, src, tr, c.cfg.backend)
	if err == nil || !c.cfg.fallback || c.cfg.backend != BackendProc ||
		!errors.Is(err, mrdist.ErrBackendUnavailable) || ctx.Err() != nil {
		return res, err
	}
	log.Printf("gmeansmr: proc backend unavailable, falling back to local backend: %v", err)
	c.cfg.observer.Counter(MetricBackendFallbacks).Inc()
	return run(ctx, src, tr, BackendLocal)
}

// writeTrace exports the run's spans to the configured writer. Traces are
// written even for failed runs — a trace of the phases that did run is
// exactly what diagnosing the failure needs.
func (c *Clusterer) writeTrace(tr *obs.Trace) error {
	if tr == nil {
		return nil
	}
	if err := tr.WriteChromeTrace(c.cfg.traceW); err != nil {
		return fmt.Errorf("gmeansmr: writing trace: %w", err)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Staging: DataSource → simulated DFS
// ---------------------------------------------------------------------------

// staged is a dataset loaded into the simulated DFS, ready for MapReduce.
type staged struct {
	env kmeansmr.Env
	n   int
	// cleanup tears down the run's execution backend (the proc backend's
	// worker fleet); callers defer it. Never nil.
	cleanup func()
}

const stagedPath = "/data/points.txt"

// stage streams src into a fresh simulated DFS — validating dimensionality
// and finiteness point by point — through a dfs.PointWriter, which keeps
// the points for the file's scans and, in parallel with reading, measures
// each point's text record with pointtext.RecordLen without formatting it,
// and right-sizes the splits so every map slot gets a few tasks. backend
// selects the execution backend for this staging (normally the
// configured one; the fallback path restages on BackendLocal).
func (c *Clusterer) stage(ctx context.Context, src DataSource, tr *obs.Trace, backend Backend) (*staged, error) {
	stageSpan := tr.StartSpan("stage", "phase")
	defer stageSpan.End()
	cluster := mr.DefaultCluster()
	if c.cfg.nodes > 0 {
		cluster = cluster.WithNodes(c.cfg.nodes)
	}
	fs := dfs.New(c.cfg.splitSize)
	rd, err := src.Open()
	if err != nil {
		return nil, err
	}
	defer rd.Close()

	// The writer needs the dimensionality, which the first point fixes.
	var w *dfs.PointWriter
	n, dim := 0, 0
	for {
		if n%8192 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		p, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := checkPoint(p, n, &dim); err != nil {
			return nil, err
		}
		if w == nil {
			w = fs.PointWriter(stagedPath, dim)
		}
		w.Append(p)
		n++
	}
	if n == 0 {
		return nil, fmt.Errorf("gmeansmr: no points")
	}
	w.Close()

	if c.cfg.splitSize == 0 {
		total, err := fs.Size(stagedPath)
		if err != nil {
			return nil, err
		}
		split := int(total) / (cluster.MapCapacity() * 4)
		if split < 4<<10 {
			split = 4 << 10
		}
		fs.SetSplitSize(split)
	}
	stageSpan.SetArg("points", n).SetArg("dim", dim)
	env := kmeansmr.Env{
		FS: fs, Cluster: cluster, Input: stagedPath,
		Dim: dim, Ctx: ctx, Trace: tr,
	}
	st := &staged{env: env, n: n, cleanup: func() {}}
	if backend == BackendProc {
		// One worker fleet per run, shared by every chained job; the
		// observer registry (when set) receives the runner's scheduling
		// metrics next to the facade's own.
		runner := mrdist.NewProcRunner(mrdist.Options{Registry: c.cfg.observer})
		st.env.Runner = runner
		st.cleanup = runner.Close
	}
	return st, nil
}

// ---------------------------------------------------------------------------
// Algorithm backends
// ---------------------------------------------------------------------------

func (c *Clusterer) runGMeansMR(ctx context.Context, src DataSource, tr *obs.Trace, backend Backend) (*Result, error) {
	st, err := c.stage(ctx, src, tr, backend)
	if err != nil {
		return nil, err
	}
	defer st.cleanup()
	return c.gmeansMR(ctx, st, src, tr)
}

// gmeansMR runs MR G-means over an already staged dataset.
func (c *Clusterer) gmeansMR(ctx context.Context, st *staged, src DataSource, tr *obs.Trace) (*Result, error) {
	cfg := core.Config{
		Env:           st.env,
		Alpha:         c.cfg.alpha,
		MaxK:          c.cfg.maxK,
		MaxIterations: c.cfg.maxIter,
		Seed:          c.cfg.seed,
		MergeRadius:   c.cfg.mergeRadius,
	}
	if c.cfg.progress != nil || c.cfg.observer != nil {
		reg := c.cfg.observer // nil-safe: handles no-op without a registry
		cfg.Progress = func(it core.IterationStats, counters map[string]int64) {
			if it.Strategy == core.StrategyMerge {
				// The closing merge is not a test round; count it apart so
				// gmeans_rounds_total matches Result.Iterations.
				reg.Counter("gmeans_merges_total").Inc()
			} else {
				reg.Counter("gmeans_rounds_total").Inc()
				reg.Gauge("gmeans_active_clusters").Set(int64(it.ActiveBefore))
				reg.Histogram("gmeans_round_seconds", nil).Observe(it.Duration.Seconds())
				for phase, d := range it.Phases {
					reg.Histogram(`gmeans_phase_seconds{phase="`+phase+`"}`, nil).Observe(d.Seconds())
				}
			}
			c.cfg.emit(Progress{
				Round:    it.Iteration,
				K:        it.FoundAfter,
				Active:   it.ActiveBefore,
				Strategy: string(it.Strategy),
				Counters: counters,
				Duration: it.Duration,
				Phases:   it.Phases,
			})
		}
	}
	res, err := core.RunContext(ctx, cfg)
	if err != nil {
		return nil, err
	}
	finSpan := tr.StartSpan("finalize", "phase")
	counters := res.Counters.Snapshot()
	counters[CounterDatasetReads] = st.env.FS.DatasetReads()
	out := &Result{
		Algorithm:  AlgorithmGMeansMR,
		Centers:    res.Centers,
		K:          res.K,
		Iterations: res.Iterations,
		Assignment: assignIfAvailable(src, res.Centers),
		Counters:   counters,
	}
	finSpan.End()
	return out, nil
}

func (c *Clusterer) runMultiK(ctx context.Context, src DataSource, tr *obs.Trace, backend Backend) (*Result, error) {
	st, err := c.stage(ctx, src, tr, backend)
	if err != nil {
		return nil, err
	}
	defer st.cleanup()
	return c.multiK(st, src)
}

// multiK runs the multi-k-means baseline over an already staged dataset.
func (c *Clusterer) multiK(st *staged, src DataSource) (*Result, error) {
	// A k-means candidate needs k distinct seeds, so cap the sweep at the
	// staged point count: WithKRange(1, 8) over a 3-point dataset sweeps
	// k=1..3 instead of failing the k=4 seeding.
	kMin, kMax := c.cfg.kMin, c.cfg.kMax
	if kMax > st.n {
		kMax = st.n
	}
	if kMin > kMax {
		kMin = kMax
	}
	mcfg := kmeansmr.MultiConfig{
		Env:        st.env,
		KMin:       kMin,
		KMax:       kMax,
		KStep:      c.cfg.kStep,
		Iterations: c.cfg.multiIters,
		// k-means++ over an oversampled pool: the paper's random seeding is
		// cheaper but yields candidate clusterings poor enough to mislead
		// the k-selection criteria; the production facade pays for quality.
		Seeding: kmeansmr.MultiSeedPlusPlus,
		Seed:    c.cfg.seed,
	}
	if c.cfg.progress != nil {
		mcfg.Progress = func(iter int, d time.Duration) {
			c.cfg.emit(Progress{Round: iter, Strategy: "multi-k-means", Duration: d})
		}
	}
	mres, err := kmeansmr.RunMulti(mcfg)
	if err != nil {
		return nil, err
	}
	if err := kmeansmr.Evaluate(mcfg, mres); err != nil {
		return nil, err
	}
	var cs []criteria.Clustering
	for k := kMin; k <= kMax; k += c.cfg.kStep {
		cs = append(cs, criteria.Clustering{K: k, Centers: mres.CentersByK[k], WCSS: mres.WCSSByK[k]})
	}
	chosen, err := c.selectK(st, cs)
	if err != nil {
		return nil, err
	}
	counters := mres.Counters.Snapshot()
	counters[CounterDatasetReads] = st.env.FS.DatasetReads()
	centers := mres.CentersByK[chosen]
	return &Result{
		Algorithm:  AlgorithmMultiK,
		Centers:    centers,
		K:          chosen,
		Iterations: len(mres.IterationTimes),
		Assignment: assignIfAvailable(src, centers),
		Counters:   counters,
		WCSS:       mres.WCSSByK[chosen],
		WCSSByK:    mres.WCSSByK,
	}, nil
}

// selectK applies the configured criterion to the candidate clusterings.
// Criteria beyond elbow need the points and read them back from the staged
// DFS file through the decoded-split cache: one extra dataset read,
// materialized in memory in file order (a sample of all st.n points draws
// nothing from its RNG).
func (c *Clusterer) selectK(st *staged, cs []criteria.Clustering) (int, error) {
	if c.cfg.criterion == CriterionElbow {
		return criteria.ElbowK(cs)
	}
	points, err := kmeansmr.SampleUpTo(st.env, st.n, c.cfg.seed)
	if err != nil {
		return 0, err
	}
	for i := range cs {
		cs[i].Assignment = lloyd.Assign(points, cs[i].Centers)
	}
	switch c.cfg.criterion {
	case CriterionJump:
		return criteria.JumpK(points, cs)
	case CriterionSilhouette:
		return criteria.SilhouetteK(points, cs, 2000, c.cfg.seed)
	default:
		return criteria.BICK(points, cs)
	}
}

func (c *Clusterer) runSeqGMeans(ctx context.Context, src DataSource) (*Result, error) {
	points, err := Materialize(src)
	if err != nil {
		return nil, err
	}
	scfg := seqgmeans.Config{
		Alpha: c.cfg.alpha,
		MaxK:  c.cfg.maxK,
		Seed:  c.cfg.seed,
	}
	if c.cfg.progress != nil {
		// The backend reports tests-so-far, which starts at zero and can
		// repeat when a cluster is finalized untested; number the events
		// ourselves to honor the 1-based, unique Round contract.
		round := 0
		scfg.Progress = func(found, pending, tests, splits int) {
			round++
			c.cfg.emit(Progress{Round: round, K: found, Active: pending, Strategy: string(AlgorithmSeqGMeans)})
		}
	}
	res, err := seqgmeans.RunContext(ctx, points, scfg)
	if err != nil {
		return nil, err
	}
	centers, assignment, wcss := c.mergeInMemory(points, res.Centers, res.Assignment, res.WCSS)
	return &Result{
		Algorithm:  AlgorithmSeqGMeans,
		Centers:    centers,
		K:          len(centers),
		Iterations: res.Tests,
		Assignment: assignment,
		Counters:   map[string]int64{CounterADTests: int64(res.Tests), "app.splits": int64(res.Splits)},
		WCSS:       wcss,
	}, nil
}

func (c *Clusterer) runXMeans(ctx context.Context, src DataSource) (*Result, error) {
	points, err := Materialize(src)
	if err != nil {
		return nil, err
	}
	xcfg := xmeans.Config{
		KMax: c.cfg.maxK,
		Seed: c.cfg.seed,
	}
	if c.cfg.progress != nil {
		xcfg.Progress = func(round, k int) {
			c.cfg.emit(Progress{Round: round, K: k, Strategy: string(AlgorithmXMeans)})
		}
	}
	res, err := xmeans.RunContext(ctx, points, xcfg)
	if err != nil {
		return nil, err
	}
	centers, assignment, wcss := c.mergeInMemory(points, res.Centers, res.Assignment, res.WCSS)
	return &Result{
		Algorithm:  AlgorithmXMeans,
		Centers:    centers,
		K:          len(centers),
		Iterations: res.Rounds,
		Assignment: assignment,
		Counters:   map[string]int64{"app.structure.rounds": int64(res.Rounds)},
		WCSS:       wcss,
	}, nil
}

// mergeInMemory applies the configured merge (auto or explicit radius)
// to an in-memory run's centers. When the merge changed k it re-assigns
// the points and recomputes the WCSS over the merged centers.
func (c *Clusterer) mergeInMemory(points, centers []Point, assignment []int, wcss float64) ([]Point, []int, float64) {
	merged := core.MergeCenters(centers, c.cfg.mergeRadius)
	if len(merged) != len(centers) {
		assignment = lloyd.Assign(points, merged)
		wcss = lloyd.WCSS(points, merged, assignment)
	}
	return merged, assignment, wcss
}

// assignIfAvailable computes the nearest-center assignment when the
// source's points are in memory; streaming sources return nil.
func assignIfAvailable(src DataSource, centers []Point) []int {
	mem, ok := src.(pointsProvider)
	if !ok {
		return nil
	}
	return lloyd.Assign(mem.points(), centers)
}
