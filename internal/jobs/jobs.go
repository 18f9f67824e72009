// Package jobs is the asynchronous job queue behind the fold3dd daemon: it
// accepts experiment requests, runs them through the exp harness on a
// bounded pool of scheduler workers, records a live event stream per job,
// and aggregates service metrics (job counters, per-stage latency
// histograms, artifact-cache effectiveness).
//
// The package bridges two worlds with different rules. Below it sits the
// deterministic flow: every job draws its results from exp.RunAll, so a
// job's result — and the result fingerprint the manager computes over it —
// is a pure function of the normalized request body, byte-identical
// whether the job ran cold, against a warm artifact cache, or concurrently
// with other jobs. Above it sits a long-running service: scheduler workers
// are long-lived goroutines (the one lint-sanctioned exception outside
// internal/pool, see DESIGN.md §12), timestamps feed latency metrics, and
// nothing of that ambient state may leak into results. The seam is
// explicit: wall-clock time is observed only in Manager.observe (metrics)
// and results are hashed before any of it is attached.
//
// Job lifecycle: queued → running → done | failed | canceled. Terminal
// states are final; every submitted job reaches one, even across a
// graceful shutdown (Close cancels the run context, so in-flight and
// still-queued jobs finish as canceled with an error wrapping
// errs.ErrCanceled).
package jobs

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"fold3d/internal/errs"
	"fold3d/internal/exp"
	"fold3d/internal/flow"
	"fold3d/internal/pipeline"
	"fold3d/internal/place"
)

// Sentinel errors of the queue itself (as opposed to request validation,
// which wraps errs.ErrBadRequest). Test with errors.Is.
var (
	// ErrQueueFull reports a Submit rejected because the bounded queue had
	// no free slot; the client should retry later (HTTP 503 + Retry-After).
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrQuotaExceeded reports a Submit rejected because the request's
	// tenant already has its full quota of queued jobs. Unlike ErrQueueFull
	// this is the tenant's own backlog, not global pressure, so it maps to
	// HTTP 429 rather than 503 — other tenants are still being admitted.
	ErrQuotaExceeded = errors.New("jobs: tenant quota exceeded")
	// ErrShutdown reports a Submit after Close began; the daemon is
	// draining and accepts no new work (HTTP 503).
	ErrShutdown = errors.New("jobs: manager shut down")
	// ErrUnknownJob reports a lookup of a job ID the manager never issued
	// (HTTP 404).
	ErrUnknownJob = errors.New("jobs: unknown job")
)

// State is a job lifecycle state.
type State string

// The job lifecycle: queued → running → one of the three terminal states.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final (done, failed or canceled).
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Request is the body of one job submission: which experiments to run and
// under which knobs. The zero value means "every experiment at the
// committed defaults" and is a valid request.
type Request struct {
	// Experiments lists registry names to run (exp.Generators); empty
	// means all of them, in canonical report order.
	Experiments []string `json:"experiments,omitempty"`
	// Scale is the netlist scale factor; 0 selects the default (1000).
	Scale float64 `json:"scale,omitempty"`
	// Seed drives all randomness; 0 selects the default (42).
	Seed uint64 `json:"seed,omitempty"`
	// Placer names the placement backend to run (place.BackendNames);
	// empty selects the default ("force"). Unlike Workers it changes the
	// work itself, so it participates in the routing and result
	// fingerprints: requests differing only in Placer are different work.
	Placer string `json:"placer,omitempty"`
	// Workers bounds the per-job flow fan-out (0 = one per CPU). It trades
	// wall-clock only: results and fingerprints are identical at any value.
	Workers int `json:"workers,omitempty"`
	// Tenant names the submitting tenant for per-tenant queue quotas;
	// empty is the anonymous tenant. Like Workers it is scheduling
	// metadata: it does not participate in the result or routing
	// fingerprints.
	Tenant string `json:"tenant,omitempty"`
	// Thermal, when non-nil, turns on in-loop thermal planning ("will this
	// folding melt"): the flows solve block temperature fields, insert
	// thermal vias, and the thermal experiment renders the melt verdict
	// against TMaxC. Like Placer it changes the work itself, so a non-nil
	// spec participates in the routing and result fingerprints; nil keeps
	// them byte-identical to requests predating the field.
	Thermal *ThermalSpec `json:"thermal,omitempty"`
}

// ThermalSpec is the thermal half of a request (Request.Thermal). The zero
// value (but non-nil) enables thermal planning at the committed defaults.
type ThermalSpec struct {
	// TMaxC is the peak-temperature budget in °C
	// (flow.ThermalConfig.TMaxBudgetC): via insertion stops once the
	// predicted peak meets it, and the thermal report marks styles still
	// above it as melting. 0 sets no budget.
	TMaxC float64 `json:"tmax_c,omitempty"`
	// Vias bounds thermal-via insertion per block/chip; 0 selects the
	// defaults (flow.DefaultThermalViaBudget per block).
	Vias int `json:"vias,omitempty"`
	// TempWeightPerC re-weights folding selection per °C of predicted block
	// temperature over ambient (core.Criteria.TempWeightPerC); 0 selects
	// the study's demo default.
	TempWeightPerC float64 `json:"temp_weight_per_c,omitempty"`
}

// thermalConfig converts the request's thermal spec into the flow
// configuration; a nil spec means thermal planning stays off.
func (r Request) thermalConfig() flow.ThermalConfig {
	if r.Thermal == nil {
		return flow.ThermalConfig{}
	}
	return flow.ThermalConfig{
		Enable:         true,
		TMaxBudgetC:    r.Thermal.TMaxC,
		ViaBudget:      r.Thermal.Vias,
		TempWeightPerC: r.Thermal.TempWeightPerC,
	}
}

// Fingerprint is the routing fingerprint of the request: the pipeline
// hash of its normalized work definition (experiments, scale, seed,
// placer). Workers and Tenant are excluded — they affect scheduling,
// never results — so every request meaning the same work routes to the
// same fleet node and shares its warm artifacts, while requests
// differing only in placement backend never collapse onto one ring
// owner or cache identity.
func (r Request) Fingerprint() string {
	n := r.normalized()
	h := pipeline.NewHasher()
	h.Int(len(n.Experiments))
	for _, name := range n.Experiments {
		h.Str(name)
	}
	h.F64(n.Scale)
	h.Uint(n.Seed)
	h.Str(n.Placer)
	// Appended only for thermal requests, so every pre-thermal request
	// keeps its historical fingerprint (and warm fleet routing) unchanged.
	if n.Thermal != nil {
		h.Str("thermal")
		h.F64(n.Thermal.TMaxC)
		h.Int(n.Thermal.Vias)
		h.F64(n.Thermal.TempWeightPerC)
	}
	return string(h.Sum())
}

// normalized fills the defaulted fields so that two requests meaning the
// same work are the same work: the stored request, the exp configuration
// and therefore the result fingerprint all derive from this form.
func (r Request) normalized() Request {
	def := exp.DefaultConfig()
	if r.Scale == 0 {
		r.Scale = def.Scale
	}
	if r.Seed == 0 {
		r.Seed = def.Seed
	}
	if r.Placer == "" {
		r.Placer = place.DefaultBackend
	}
	return r
}

// config converts the (normalized) request into the exp harness
// configuration, attaching the manager-owned shared cache.
func (r Request) config(cache *pipeline.Cache) exp.Config {
	return exp.Config{Scale: r.Scale, Seed: r.Seed, Workers: r.Workers, Placer: r.Placer,
		Cache: cache, Thermal: r.thermalConfig()}
}

// Validate checks the request without running it. Failures wrap
// errs.ErrBadRequest (plus errs.ErrUnknownExperiment for bad names), so a
// transport can map them to client errors with errors.Is.
func (r Request) Validate() error {
	if err := (exp.Config{Scale: r.Scale, Seed: r.Seed, Workers: r.Workers, Placer: r.Placer,
		Thermal: r.thermalConfig()}).Validate(); err != nil {
		return err
	}
	return exp.ValidateNames(r.Experiments)
}

// Event is one line of a job's NDJSON event stream: either a lifecycle
// transition (Kind "state") or a flow progress update (Kind "progress").
// Seq numbers are dense and strictly increasing per job, so a consumer can
// resume a stream from any point without gaps or reordering.
type Event struct {
	// Seq is the 0-based position of the event in the job's stream.
	Seq int `json:"seq"`
	// Kind discriminates the payload: "state" or "progress".
	Kind string `json:"kind"`
	// State is the lifecycle state entered (Kind "state").
	State State `json:"state,omitempty"`
	// Error carries the failure text of a terminal failed/canceled state.
	Error string `json:"error,omitempty"`
	// Fingerprint carries the result fingerprint of a terminal done state.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Experiment, Stage, Block, Done and Total mirror flow.Progress
	// (Kind "progress").
	Experiment string `json:"experiment,omitempty"`
	Stage      string `json:"stage,omitempty"`
	Block      string `json:"block,omitempty"`
	Done       int    `json:"done,omitempty"`
	Total      int    `json:"total,omitempty"`
}

// ExperimentResult is one experiment's output inside a job result.
type ExperimentResult struct {
	// Name is the registry name of the experiment.
	Name string `json:"name"`
	// Report is the formatted text report (tables, figure summaries).
	Report string `json:"report"`
	// Files holds artifact files (SVGs, netlist dumps) by basename.
	Files map[string]string `json:"files,omitempty"`
	// Volatile holds display-only annotations (wall-clock timings). It is
	// excluded from the result fingerprint: two jobs differing only in
	// Volatile are byte-identical work.
	Volatile string `json:"volatile,omitempty"`
}

// Result is a completed job's output. Fingerprint is a content hash over
// every experiment name, report and artifact file in canonical order; the
// determinism contract promises it is a pure function of the normalized
// request.
type Result struct {
	// Fingerprint is the hex content hash of the full result.
	Fingerprint string `json:"fingerprint"`
	// Experiments holds the per-experiment outputs in registry order.
	Experiments []ExperimentResult `json:"experiments"`
}

// fingerprintResults hashes completed results in their (already canonical)
// slice order with the pipeline's length-framed hasher.
func fingerprintResults(results []*exp.Result) string {
	h := pipeline.NewHasher()
	h.Int(len(results))
	for _, r := range results {
		h.Str(r.Name)
		h.Str(r.Report)
		names := make([]string, 0, len(r.Files))
		for name := range r.Files {
			names = append(names, name)
		}
		sort.Strings(names)
		h.Int(len(names))
		for _, name := range names {
			h.Str(name)
			h.Str(r.Files[name])
		}
	}
	return string(h.Sum())
}

// Info is a point-in-time snapshot of a job, shaped for the status API.
type Info struct {
	// ID is the manager-issued job identifier.
	ID string `json:"id"`
	// State is the lifecycle state at snapshot time.
	State State `json:"state"`
	// Request is the normalized request the job runs.
	Request Request `json:"request"`
	// Error is the failure text of a failed/canceled job.
	Error string `json:"error,omitempty"`
	// Result is the output of a done job, nil otherwise.
	Result *Result `json:"result,omitempty"`
}

// Job is one queued or running experiment request. All methods are safe
// for concurrent use.
type Job struct {
	id  string
	req Request
	// onEvent, when set (batch membership), receives every event after it
	// is recorded, outside j.mu and in per-job order — a job's events are
	// appended by one goroutine at a time (Submit before workers see the
	// job, then its one scheduler worker).
	onEvent func(*Job, Event)

	mu     sync.Mutex
	state  State
	err    error
	result *Result
	events []Event
	notify chan struct{} // closed and replaced on every append
	done   chan struct{} // closed once, on reaching a terminal state
}

// ID returns the manager-issued job identifier.
func (j *Job) ID() string { return j.id }

// Request returns the normalized request the job runs.
func (j *Job) Request() Request { return j.req }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Err returns the terminal error of a failed or canceled job, nil before
// termination and for done jobs.
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Info snapshots the job for the status API.
func (j *Job) Info() Info {
	j.mu.Lock()
	defer j.mu.Unlock()
	info := Info{ID: j.id, State: j.state, Request: j.req, Result: j.result}
	if j.err != nil {
		info.Error = j.err.Error()
	}
	return info
}

// EventsSince returns a copy of the recorded events from sequence number
// from onward, a channel closed when further events arrive, and whether
// the job has reached a terminal state. When terminal is true and the
// returned slice drains the stream, no further events will ever arrive.
func (j *Job) EventsSince(from int) (events []Event, more <-chan struct{}, terminal bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if from < 0 {
		from = 0
	}
	if from < len(j.events) {
		events = append(events, j.events[from:]...)
	}
	return events, j.notify, j.state.Terminal()
}

// append records an event (Seq assigned here) and wakes every stream
// follower. Callers must not hold j.mu.
func (j *Job) append(ev Event) {
	j.mu.Lock()
	ev = j.appendLocked(ev)
	j.mu.Unlock()
	if j.onEvent != nil {
		j.onEvent(j, ev)
	}
}

// appendLocked is append's recording half: it assigns Seq, stores the event
// and wakes followers, returning the stored event. Callers hold j.mu.
func (j *Job) appendLocked(ev Event) Event {
	ev.Seq = len(j.events)
	j.events = append(j.events, ev)
	close(j.notify)
	j.notify = make(chan struct{})
	return ev
}

// setState transitions the lifecycle state and records the matching event;
// terminal transitions attach the error/fingerprint and close Done. The
// state and its event change in one critical section, so EventsSince never
// reports a terminal state without the terminal event in the log.
func (j *Job) setState(s State, err error, result *Result) {
	ev := Event{Kind: "state", State: s}
	if err != nil {
		ev.Error = err.Error()
	}
	if result != nil {
		ev.Fingerprint = result.Fingerprint
	}
	j.mu.Lock()
	j.state = s
	j.err = err
	j.result = result
	ev = j.appendLocked(ev)
	j.mu.Unlock()
	if j.onEvent != nil {
		j.onEvent(j, ev)
	}
	if s.Terminal() {
		close(j.done)
	}
}

// Options configures a Manager.
type Options struct {
	// Workers is the number of scheduler workers, i.e. the bound on
	// concurrently running jobs; 0 selects 2. Each job additionally fans
	// out its own flow across Request.Workers.
	Workers int
	// QueueDepth bounds the number of jobs waiting to run; a full queue
	// rejects Submit with ErrQueueFull. 0 selects 64.
	QueueDepth int
	// Cache is the process-wide artifact cache shared by every job, so
	// concurrent and repeat jobs restore each other's block artifacts. Nil
	// creates a fresh memory-only cache.
	Cache *pipeline.Cache
	// NodeID, when non-empty, prefixes every issued job and batch ID
	// ("<node>-job-000001"), so any fleet node can route a GET for a
	// foreign ID to the node that minted it. Empty keeps the single-node
	// legacy format ("job-000001").
	NodeID string
	// TenantQuota bounds the queued jobs of any single tenant; a tenant at
	// its quota gets ErrQuotaExceeded (HTTP 429) while others keep being
	// admitted. 0 means no per-tenant bound (only QueueDepth applies).
	TenantQuota int
}

// Manager owns the job queue: validation, admission, the scheduler
// workers, job state, and service metrics. Create one per process with
// NewManager and stop it with Close.
type Manager struct {
	cache  *pipeline.Cache
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	nodeID string
	depth  int // bound on queued (admitted, not yet started) jobs
	quota  int // per-tenant bound on queued jobs; 0 = unlimited

	mu   sync.Mutex
	cond *sync.Cond // signals workers: work queued, or shutdown
	// The admission queue is a set of per-tenant FIFOs drained round-robin,
	// so one tenant flooding its quota cannot starve another tenant's jobs
	// behind its backlog (the fairness half of the quota story; the 429
	// half is in Submit).
	fifos     map[string][]*Job
	rotor     []string // round-robin tenant order; rotated on every dequeue
	jobs      map[string]*Job
	batches   map[string]*Batch
	order     []string
	seq       int
	batchSeq  int
	closed    bool
	nQueued   int // gauge: submitted, not yet started (Σ len(fifos))
	nRunning  int // gauge: started, not yet terminal
	nDone     int
	nFailed   int
	nCanceled int
	hist      map[string]*histogram // per-stage latency
}

// NewManager starts a manager with opts.Workers scheduler goroutines
// (the lint-sanctioned server exemption; see the package comment).
func NewManager(opts Options) *Manager {
	workers := opts.Workers
	if workers <= 0 {
		workers = 2
	}
	depth := opts.QueueDepth
	if depth <= 0 {
		depth = 64
	}
	cache := opts.Cache
	if cache == nil {
		cache = pipeline.NewCache(pipeline.CacheOptions{})
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cache:   cache,
		ctx:     ctx,
		cancel:  cancel,
		nodeID:  opts.NodeID,
		depth:   depth,
		quota:   opts.TenantQuota,
		fifos:   map[string][]*Job{},
		jobs:    map[string]*Job{},
		batches: map[string]*Batch{},
		hist:    map[string]*histogram{},
	}
	m.cond = sync.NewCond(&m.mu)
	for w := 0; w < workers; w++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// jobID mints the next job ID. Callers hold m.mu.
func (m *Manager) jobID() string {
	m.seq++
	if m.nodeID != "" {
		return fmt.Sprintf("%s-job-%06d", m.nodeID, m.seq)
	}
	return fmt.Sprintf("job-%06d", m.seq)
}

// admitLocked checks admission limits for n more jobs from tenant.
// Callers hold m.mu.
func (m *Manager) admitLocked(tenant string, n int) error {
	if m.closed {
		return ErrShutdown
	}
	if m.quota > 0 && len(m.fifos[tenant])+n > m.quota {
		return fmt.Errorf("%w: tenant %q has %d jobs queued (quota %d)",
			ErrQuotaExceeded, tenant, len(m.fifos[tenant]), m.quota)
	}
	if m.nQueued+n > m.depth {
		return fmt.Errorf("%w: %d jobs waiting", ErrQueueFull, m.nQueued)
	}
	return nil
}

// enqueueLocked registers and queues an already-validated job under its
// tenant's FIFO and wakes a worker. Callers hold m.mu and have passed
// admitLocked.
func (m *Manager) enqueueLocked(j *Job) {
	tenant := j.req.Tenant
	if _, known := m.fifos[tenant]; !known {
		m.rotor = append(m.rotor, tenant)
	}
	m.fifos[tenant] = append(m.fifos[tenant], j)
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.nQueued++
	m.cond.Signal()
}

// dequeueLocked pops the next job round-robin across tenant FIFOs, or nil
// when nothing is queued. Callers hold m.mu.
func (m *Manager) dequeueLocked() *Job {
	for i, tenant := range m.rotor {
		fifo := m.fifos[tenant]
		if len(fifo) == 0 {
			continue
		}
		j := fifo[0]
		m.fifos[tenant] = fifo[1:]
		// Rotate the served tenant to the back so tenants take turns.
		m.rotor = append(append(m.rotor[:i:i], m.rotor[i+1:]...), tenant)
		m.nQueued--
		return j
	}
	return nil
}

// Submit validates, registers and enqueues a request, returning the new
// job (already in state queued). Validation failures wrap
// errs.ErrBadRequest; a tenant at its quota gets ErrQuotaExceeded; a full
// queue returns ErrQueueFull; after Close it returns ErrShutdown.
func (m *Manager) Submit(req Request) (*Job, error) {
	req = req.normalized()
	if err := req.Validate(); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.admitLocked(req.Tenant, 1); err != nil {
		return nil, err
	}
	j := &Job{
		id:     m.jobID(),
		req:    req,
		state:  StateQueued,
		events: []Event{{Seq: 0, Kind: "state", State: StateQueued}},
		notify: make(chan struct{}),
		done:   make(chan struct{}),
	}
	m.enqueueLocked(j)
	return j, nil
}

// Get returns the job by ID, or ErrUnknownJob.
func (m *Manager) Get(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return j, nil
}

// Infos snapshots every job in submission order.
func (m *Manager) Infos() []Info {
	m.mu.Lock()
	order := append([]string(nil), m.order...)
	jobs := make([]*Job, len(order))
	for i, id := range order {
		jobs[i] = m.jobs[id]
	}
	m.mu.Unlock()
	out := make([]Info, len(jobs))
	for i, j := range jobs {
		out[i] = j.Info()
	}
	return out
}

// Closed reports whether Close has begun; a closed manager rejects new
// submissions (the /healthz signal).
func (m *Manager) Closed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// Close shuts the manager down gracefully: no new submissions are
// admitted, the run context is canceled so in-flight jobs finish promptly
// as canceled (their error wraps errs.ErrCanceled), still-queued jobs are
// drained to the same terminal state, and the scheduler workers exit.
// Close returns once every worker has stopped, or with ctx's error if the
// drain outlives it. Close is idempotent.
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	already := m.closed
	m.closed = true
	// Every parked worker must wake to observe closed (then drain whatever
	// is still queued to its canceled terminal state before exiting).
	m.cond.Broadcast()
	m.mu.Unlock()
	if !already {
		m.cancel()
	}
	done := make(chan struct{})
	go func() { // sanctioned: the drain waiter of the scheduler exemption
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("jobs: drain incomplete: %w", ctx.Err())
	}
}

// worker is one scheduler goroutine: it drains the tenant queues until
// Close. It deliberately keeps consuming after cancellation so that every
// queued job reaches a terminal state (runJob is fast once m.ctx is done).
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		j := m.next()
		if j == nil {
			return
		}
		m.runJob(j)
	}
}

// next blocks until a job is available round-robin across tenants,
// returning nil once the manager is closed and the queues are drained.
// Shutdown wakes parked workers via the Broadcast in Close, so the wait
// needs no context of its own.
func (m *Manager) next() *Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if j := m.dequeueLocked(); j != nil {
			return j
		}
		if m.closed {
			return nil
		}
		m.cond.Wait()
	}
}

// runJob drives one job through the exp harness and into a terminal state.
func (m *Manager) runJob(j *Job) {
	m.mu.Lock()
	m.nRunning++
	m.mu.Unlock()
	j.setState(StateRunning, nil, nil)

	cfg := j.req.config(m.cache)
	// last tracks the previous progress timestamp for stage-latency
	// attribution. exp.RunAll serializes progress callbacks, so the
	// variable is confined to the (one-at-a-time) callback executions.
	last := time.Now()
	cfg.Progress = func(p flow.Progress) {
		now := time.Now()
		m.observe(p.Stage, now.Sub(last))
		last = now
		j.append(Event{
			Kind:       "progress",
			Experiment: p.Experiment,
			Stage:      p.Stage,
			Block:      p.Block,
			Done:       p.Done,
			Total:      p.Total,
		})
	}
	results, err := exp.RunAll(m.ctx, cfg, j.req.Experiments, nil)

	var state State
	var result *Result
	switch {
	case err != nil && errors.Is(err, errs.ErrCanceled):
		state = StateCanceled
	case err != nil:
		state = StateFailed
	default:
		state = StateDone
		result = &Result{Fingerprint: fingerprintResults(results)}
		for _, r := range results {
			result.Experiments = append(result.Experiments, ExperimentResult{
				Name:     r.Name,
				Report:   r.Report,
				Files:    r.Files,
				Volatile: r.Volatile,
			})
		}
	}
	m.mu.Lock()
	m.nRunning--
	switch state {
	case StateDone:
		m.nDone++
	case StateFailed:
		m.nFailed++
	case StateCanceled:
		m.nCanceled++
	}
	m.mu.Unlock()
	j.setState(state, err, result)
}

// CacheStats snapshots the shared artifact cache counters.
func (m *Manager) CacheStats() pipeline.Stats { return m.cache.Stats() }

// CacheEntry returns the serialized wire entry for an artifact key from
// the node-local cache (memory wire copy or disk spill, never peers), for
// the /v1/artifacts peer-serving endpoint.
func (m *Manager) CacheEntry(key string) ([]byte, bool) { return m.cache.EntryBytes(key) }
