package simsrv

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/coord"
	"repro/internal/jobstore"
	"repro/sim"
)

// Config assembles a Server.
type Config struct {
	// Store is the durable job store; required.
	Store *jobstore.Store
	// Workers is the number of jobs executed concurrently (default 1;
	// each job's sweep already fans across GOMAXPROCS).
	Workers int
	// SweepWorkers bounds the per-job sweep pool (0 means GOMAXPROCS).
	SweepWorkers int
	// Lease is the claim lease duration for distributed jobs
	// (0 means coord.DefaultLease). A worker that misses renewing for a
	// full lease loses its claim and the range is re-issued.
	Lease time.Duration
	// MaxAttempts is the per-index attempt budget for distributed jobs
	// (0 means coord.DefaultMaxAttempts). A run index whose claimants
	// die or fail this many times is quarantined and the job fails
	// loudly with a per-index diagnosis instead of livelocking workers.
	MaxAttempts int
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// Server owns the job queue, the dispatcher pool, and the HTTP API.
// Create with New, start the dispatcher with Start, and stop with
// Drain: draining requeues in-flight jobs durably (running → queued)
// so the next process resumes them from their persisted checkpoints.
type Server struct {
	store        *jobstore.Store
	cache        *Cache
	logf         func(string, ...any)
	sweepWorkers int
	workers      int
	lease        time.Duration
	maxAttempts  int

	ctx      context.Context // canceled by Drain; aborts in-flight sweeps
	ctxStop  context.CancelFunc
	wg       sync.WaitGroup
	qmu      sync.Mutex
	qcond    *sync.Cond
	queue    []string
	draining bool

	amu    sync.Mutex
	active map[string]*activeJob

	// cmu guards the coordinator registry: one distJob per distributed
	// job currently accepting claims.
	cmu    sync.Mutex
	coords map[string]*distJob
}

// distJob is the server-side state of one distributed job while it is
// accepting claims: the claim ledger over the sweep's index space plus
// everything the claim and publish handlers need without re-deriving it
// per request.
type distJob struct {
	ledger *coord.Ledger
	spec   sim.JobSpec
	raw    json.RawMessage // normalized spec bytes, as stored
	keys   []string        // per-index content-address keys
	a      *activeJob
	// handlers counts the claim requests holding this distJob (see dist).
	handlers sync.WaitGroup
}

// activeJob is the in-memory side of one running (or watched) job:
// cancellation plumbing, live progress counters, and event
// subscribers.
type activeJob struct {
	cancel     context.CancelFunc
	userCancel bool

	mu        sync.Mutex
	events    uint64 // fired events across all runs, monotonic
	startedAt time.Time
	subs      map[chan []byte]struct{}
	refs      int
}

// New opens the cache and recovers the store: jobs left running by a
// previous process are requeued (the running→queued recovery edge) and
// every queued job re-enters the dispatch queue in creation order.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("simsrv: Config.Store is required")
	}
	cache, err := NewCache(filepath.Join(cfg.Store.Dir(), "cache"))
	if err != nil {
		return nil, err
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	lease := cfg.Lease
	if lease <= 0 {
		lease = coord.DefaultLease
	}
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		store:        cfg.Store,
		cache:        cache,
		logf:         logf,
		sweepWorkers: cfg.SweepWorkers,
		workers:      workers,
		lease:        lease,
		maxAttempts:  cfg.MaxAttempts,
		ctx:          ctx,
		ctxStop:      stop,
		active:       make(map[string]*activeJob),
		coords:       make(map[string]*distJob),
	}
	s.qcond = sync.NewCond(&s.qmu)

	for _, j := range s.store.List() {
		switch j.State {
		case jobstore.Running:
			if _, err := s.store.Transition(j.ID, jobstore.Queued, "recovered: previous simd exited mid-run"); err != nil {
				return nil, err
			}
			s.logf("recovered %s: requeued with %d/%s runs complete", j.ID, len(j.Runs), runsTotal(j))
			s.enqueue(j.ID)
		case jobstore.Queued:
			s.enqueue(j.ID)
		}
	}
	return s, nil
}

func runsTotal(j jobstore.Job) string {
	var sp sim.JobSpec
	if err := json.Unmarshal(j.Spec, &sp); err != nil {
		return "?"
	}
	return fmt.Sprint(sp.Normalize().Runs)
}

// Start launches the dispatcher pool.
func (s *Server) Start() {
	for i := 0; i < s.workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				id, ok := s.nextJob()
				if !ok {
					return
				}
				s.runJob(id)
			}
		}()
	}
}

// Drain stops the dispatcher gracefully: no further jobs are picked up,
// in-flight sweeps are interrupted at their next event chunk and their
// jobs durably requeued, and the pool is awaited (subject to ctx).
func (s *Server) Drain(ctx context.Context) error {
	s.qmu.Lock()
	s.draining = true
	s.qcond.Broadcast()
	s.qmu.Unlock()
	s.ctxStop() // interrupt in-flight sweeps

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("simsrv: drain timed out: %w", ctx.Err())
	}
}

// enqueue appends a job to the dispatch queue.
func (s *Server) enqueue(id string) {
	s.qmu.Lock()
	s.queue = append(s.queue, id)
	s.qcond.Signal()
	s.qmu.Unlock()
}

// nextJob blocks until a job is available or the server drains.
func (s *Server) nextJob() (string, bool) {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	for len(s.queue) == 0 && !s.draining {
		s.qcond.Wait()
	}
	if s.draining {
		return "", false
	}
	id := s.queue[0]
	s.queue = s.queue[1:]
	return id, true
}

// watch returns the job's activeJob record, creating one if needed, and
// takes a reference so event subscribers and the runner share it.
func (s *Server) watch(id string) *activeJob {
	s.amu.Lock()
	defer s.amu.Unlock()
	a := s.active[id]
	if a == nil {
		a = &activeJob{subs: make(map[chan []byte]struct{})}
		s.active[id] = a
	}
	a.refs++
	return a
}

// unwatch drops a reference, deleting the record once unused.
func (s *Server) unwatch(id string, a *activeJob) {
	s.amu.Lock()
	defer s.amu.Unlock()
	a.refs--
	if a.refs <= 0 {
		delete(s.active, id)
	}
}

// publish fans an event line out to the job's subscribers. Slow
// subscribers drop events rather than stall the sweep pool.
func (a *activeJob) publish(line []byte) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for ch := range a.subs {
		select {
		case ch <- line:
		default:
		}
	}
}

// subscribe registers an event channel; the returned func removes it.
func (a *activeJob) subscribe() (chan []byte, func()) {
	ch := make(chan []byte, 256)
	a.mu.Lock()
	a.subs[ch] = struct{}{}
	a.mu.Unlock()
	return ch, func() {
		a.mu.Lock()
		delete(a.subs, ch)
		a.mu.Unlock()
	}
}

// event is one NDJSON stream line.
type event struct {
	Type string `json:"type"`
	Job  string `json:"job"`
	// Transition fields.
	State  string `json:"state,omitempty"`
	Reason string `json:"reason,omitempty"`
	// Run-scoped fields (run_started / run_progress / run_finished).
	Index      *int    `json:"index,omitempty"`
	Seed       uint64  `json:"seed,omitempty"`
	Events     uint64  `json:"events,omitempty"`
	SimSeconds float64 `json:"sim_seconds,omitempty"`
	Completed  int     `json:"runs_completed,omitempty"`
	Total      int     `json:"runs_total,omitempty"`
}

func (s *Server) publishEvent(id string, a *activeJob, ev event) {
	ev.Job = id
	line, err := json.Marshal(ev)
	if err != nil {
		return
	}
	a.publish(line)
}

// transition moves a job's state durably and publishes the change to
// stream subscribers.
func (s *Server) transition(id string, a *activeJob, to jobstore.State, reason string) error {
	if _, err := s.store.Transition(id, to, reason); err != nil {
		return err
	}
	s.logf("%s → %s (%s)", id, to, reason)
	if a != nil {
		s.publishEvent(id, a, event{Type: "transition", State: string(to), Reason: reason})
	}
	return nil
}
