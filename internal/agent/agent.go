// Package agent implements the per-node runtime of the decentralized file
// allocation algorithm. Each agent knows only its local model — its
// traffic-weighted access cost C_i, service rate μ_i, the system-wide rate
// λ and scaling factor k — computes its own marginal utility, exchanges it
// with its peers each round (section 5.2 step a), and applies the identical
// deterministic re-allocation every peer computes (broadcast mode) or the
// deltas a designated central agent distributes (coordinator mode).
//
// Because every node plans steps with the same core.PlanStep over the same
// round data, the distributed trajectory is bit-identical to the
// centralized Allocator's — verified by the integration tests and the E9
// ablation.
package agent

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"filealloc/internal/core"
	"filealloc/internal/protocol"
	"filealloc/internal/secondorder"
	"filealloc/internal/transport"
)

// Sentinel errors.
var (
	// ErrBadConfig reports invalid agent configuration.
	ErrBadConfig = errors.New("agent: invalid configuration")
	// ErrRoundTimeout reports a round that did not complete in time
	// (lost peer or dropped message).
	ErrRoundTimeout = errors.New("agent: round timed out")
	// ErrProtocol reports a peer violating the protocol.
	ErrProtocol = errors.New("agent: protocol violation")
	// ErrLapped reports a resume that came back after the cluster had
	// already quorum-completed rounds without this node: a peer's report
	// arrived for a round more than one ahead of ours. Continuing would
	// plan steps over a different group than the survivors and drift
	// from Σx = 1, so the agent fails loudly; re-entry goes through the
	// epoch rejoin path instead.
	ErrLapped = errors.New("agent: resumed behind the cluster")
	// ErrDesync reports that a peer planned the previous round's step
	// over a different group than we did — the quorum-round fingerprints
	// disagree. Both sides stop before the divergence can spread.
	ErrDesync = errors.New("agent: round group desynchronized")
	// ErrCheckpoint reports a failed checkpoint save; the agent stops
	// rather than keep running without durable progress.
	ErrCheckpoint = errors.New("agent: checkpoint save failed")
)

// CheckpointSink persists an agent's round state so a supervised restart
// can resume the run bit-identically. SaveRound is called at the top of
// every round, before any message of the round is sent; the recovery
// package's Store is the durable implementation. A nil sink disables
// checkpointing.
type CheckpointSink interface {
	// SaveRound records the state the round starts from: the node's own
	// fragment x, its view xs of the full allocation, the live
	// membership, and the bitmask fingerprint of the previous round's
	// planning group.
	SaveRound(round int, x float64, xs []float64, alive []bool, planned uint64) error
}

// LocalModel is the node-local knowledge needed to evaluate the marginal
// utility of the equation-2 objective at the node's own fragment:
//
//	∂U/∂x_i = −(C_i + k·μ_i/(μ_i − λ·x_i)²)
//
// C_i is computed once at setup time from the (static) topology and access
// rates; λ is the system-wide access rate agreed at setup.
type LocalModel struct {
	// AccessCost is C_i.
	AccessCost float64
	// ServiceRate is μ_i.
	ServiceRate float64
	// Lambda is the system-wide access generation rate λ.
	Lambda float64
	// K is the delay scaling factor.
	K float64
}

// Marginal returns ∂U/∂x_i at the local fragment size x.
func (m LocalModel) Marginal(x float64) (float64, error) {
	room := m.ServiceRate - m.Lambda*x
	if room <= 0 {
		return 0, fmt.Errorf("%w: local queue saturated (μ=%v, λ·x=%v)", core.ErrUnstable, m.ServiceRate, m.Lambda*x)
	}
	return -(m.AccessCost + m.K*m.ServiceRate/(room*room)), nil
}

// Curvature returns ∂²U/∂x_i² at the local fragment size x, the quantity
// exchanged for the dynamic Theorem-2 stepsize.
func (m LocalModel) Curvature(x float64) (float64, error) {
	room := m.ServiceRate - m.Lambda*x
	if room <= 0 {
		return 0, fmt.Errorf("%w: local queue saturated (μ=%v, λ·x=%v)", core.ErrUnstable, m.ServiceRate, m.Lambda*x)
	}
	return -2 * m.K * m.ServiceRate * m.Lambda / (room * room * room), nil
}

// Mode selects the aggregation scheme of section 5.1.
type Mode int

const (
	// Broadcast has every node send its marginal utility to every other
	// node; each node then computes the identical re-allocation locally.
	Broadcast Mode = iota + 1
	// Coordinator has every node report to a designated central agent,
	// which plans the step and distributes the deltas.
	Coordinator
)

func (m Mode) String() string {
	switch m {
	case Broadcast:
		return "broadcast"
	case Coordinator:
		return "coordinator"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config assembles one agent.
type Config struct {
	// Endpoint connects the agent to its peers.
	Endpoint transport.Endpoint
	// Model is the node-local cost knowledge.
	Model LocalModel
	// Init is the node's initial fragment x_i (the cluster-wide initial
	// allocation must be feasible).
	Init float64
	// Alpha is the stepsize (default 0.1).
	Alpha float64
	// Epsilon is the termination threshold (default 1e-3).
	Epsilon float64
	// MaxRounds bounds the protocol (default 10000).
	MaxRounds int
	// Mode selects broadcast or coordinator aggregation (default
	// Broadcast).
	Mode Mode
	// CoordinatorID names the central agent in Coordinator mode.
	CoordinatorID int
	// RoundTimeout bounds each round's message wait (default 10s).
	RoundTimeout time.Duration
	// SendRetries is the number of times a failed send is retried
	// before the agent gives up (default 0: fail fast). The protocol's
	// rounds are lockstep, so a retried duplicate can never arrive —
	// each (round, node) report is sent exactly once successfully.
	SendRetries int
	// DynamicAlphaSafety, when in (0, 1], makes every node evaluate the
	// Theorem-2 stepsize from the round's exchanged marginals and
	// curvatures (scaled by the safety factor) instead of the fixed
	// Alpha — the appendix's "dynamically calculate it at each
	// iteration" suggestion, computed identically on every node.
	// Broadcast mode only.
	DynamicAlphaSafety float64
	// SecondOrder switches the re-allocation rule to the section 8.2
	// curvature-scaled step (Δx_i = α(g_i − ν)/|h_i| with the weighted
	// average ν); curvatures are exchanged alongside marginals. Alpha
	// then defaults to 1, the Newton step. Broadcast mode only;
	// mutually exclusive with DynamicAlphaSafety.
	SecondOrder bool
	// Observer receives round-level events (default: none). A shared
	// Observer must be safe for concurrent use.
	Observer Observer

	// Quorum, when nonzero, lets a broadcast round complete short on its
	// RoundTimeout deadline as long as at least Quorum nodes (including
	// this one) reported; the round's step is then planned over the
	// reporters only. Must be in [2, n]. Broadcast mode only, n ≤ 64
	// (the Planned fingerprint is a 64-bit mask), and incompatible with
	// DynamicAlphaSafety and SecondOrder, whose stepsize math assumes
	// full rounds. Zero (the default) keeps the strict lockstep
	// protocol: a short round is ErrRoundTimeout.
	Quorum int
	// DepartAfter, when nonzero, declares a peer departed after it
	// missed that many consecutive quorum rounds; the survivors then
	// redistribute its fraction (core.Renormalize) and continue on the
	// reduced support. Requires Quorum — departure detection rides on
	// rounds that complete without the silent peer.
	DepartAfter int
	// Checkpoint, when non-nil, persists the round state at the top of
	// every round so a supervised restart can resume bit-identically.
	// Broadcast mode only.
	Checkpoint CheckpointSink
	// StartRound resumes the protocol at a later round (from a
	// checkpoint) instead of 0. The Init* fields below restore the rest
	// of the checkpointed state. Broadcast mode only.
	StartRound int
	// InitFullX restores the node's view of the full allocation on
	// resume; nil starts from zeros (round 0 fills it from reports).
	InitFullX []float64
	// InitAlive restores the live-membership view on resume; nil means
	// all nodes alive. When set it must include this node.
	InitAlive []bool
	// InitPlanned restores the previous round's planning-group
	// fingerprint on resume; zero means "no previous plan" and disables
	// the desync check for the first resumed round.
	InitPlanned uint64
}

func (c *Config) fill() error {
	if c.Endpoint == nil {
		return fmt.Errorf("%w: nil endpoint", ErrBadConfig)
	}
	if c.Alpha == 0 {
		if c.SecondOrder {
			c.Alpha = 1 // Newton step
		} else {
			c.Alpha = 0.1
		}
	}
	if c.Alpha < 0 || math.IsNaN(c.Alpha) {
		return fmt.Errorf("%w: alpha = %v", ErrBadConfig, c.Alpha)
	}
	if c.Epsilon == 0 {
		c.Epsilon = 1e-3
	}
	if c.Epsilon < 0 {
		return fmt.Errorf("%w: epsilon = %v", ErrBadConfig, c.Epsilon)
	}
	if c.MaxRounds == 0 {
		c.MaxRounds = 10000
	}
	if c.MaxRounds < 1 {
		return fmt.Errorf("%w: max rounds = %d", ErrBadConfig, c.MaxRounds)
	}
	if c.Mode == 0 {
		c.Mode = Broadcast
	}
	if c.Mode != Broadcast && c.Mode != Coordinator {
		return fmt.Errorf("%w: mode = %v", ErrBadConfig, c.Mode)
	}
	if c.CoordinatorID < 0 || c.CoordinatorID >= c.Endpoint.Peers() {
		return fmt.Errorf("%w: coordinator id %d outside cluster of %d", ErrBadConfig, c.CoordinatorID, c.Endpoint.Peers())
	}
	if c.RoundTimeout == 0 {
		c.RoundTimeout = 10 * time.Second
	}
	if c.Observer == nil {
		c.Observer = NopObserver{}
	}
	if c.Init < 0 || math.IsNaN(c.Init) {
		return fmt.Errorf("%w: initial fragment %v", ErrBadConfig, c.Init)
	}
	if c.SendRetries < 0 {
		return fmt.Errorf("%w: send retries = %d", ErrBadConfig, c.SendRetries)
	}
	if c.DynamicAlphaSafety < 0 || c.DynamicAlphaSafety > 1 || math.IsNaN(c.DynamicAlphaSafety) {
		return fmt.Errorf("%w: dynamic-alpha safety = %v", ErrBadConfig, c.DynamicAlphaSafety)
	}
	if c.DynamicAlphaSafety > 0 && c.Mode != Broadcast {
		return fmt.Errorf("%w: dynamic alpha requires broadcast mode", ErrBadConfig)
	}
	if c.SecondOrder {
		if c.Mode != Broadcast {
			return fmt.Errorf("%w: second-order step requires broadcast mode", ErrBadConfig)
		}
		if c.DynamicAlphaSafety > 0 {
			return fmt.Errorf("%w: second-order step and dynamic alpha are mutually exclusive", ErrBadConfig)
		}
	}
	n := c.Endpoint.Peers()
	if c.Quorum != 0 {
		if c.Mode != Broadcast {
			return fmt.Errorf("%w: quorum rounds require broadcast mode", ErrBadConfig)
		}
		if c.Quorum < 2 || c.Quorum > n {
			return fmt.Errorf("%w: quorum %d outside [2, %d]", ErrBadConfig, c.Quorum, n)
		}
		if n > 64 {
			return fmt.Errorf("%w: quorum rounds need n ≤ 64 (planning-group fingerprint is a 64-bit mask), have %d", ErrBadConfig, n)
		}
		if c.DynamicAlphaSafety > 0 || c.SecondOrder {
			return fmt.Errorf("%w: quorum rounds are incompatible with dynamic alpha and second-order steps", ErrBadConfig)
		}
	}
	if c.DepartAfter < 0 {
		return fmt.Errorf("%w: depart-after = %d", ErrBadConfig, c.DepartAfter)
	}
	if c.DepartAfter > 0 && c.Quorum == 0 {
		return fmt.Errorf("%w: departure detection requires quorum rounds", ErrBadConfig)
	}
	if c.Checkpoint != nil && c.Mode != Broadcast {
		return fmt.Errorf("%w: checkpointing requires broadcast mode", ErrBadConfig)
	}
	if c.StartRound < 0 || c.StartRound >= c.MaxRounds {
		return fmt.Errorf("%w: start round %d outside [0, %d)", ErrBadConfig, c.StartRound, c.MaxRounds)
	}
	if c.StartRound > 0 && c.Mode != Broadcast {
		return fmt.Errorf("%w: checkpoint resume requires broadcast mode", ErrBadConfig)
	}
	if c.InitFullX != nil && len(c.InitFullX) != n {
		return fmt.Errorf("%w: initial full allocation has %d entries for cluster of %d", ErrBadConfig, len(c.InitFullX), n)
	}
	if c.InitAlive != nil {
		if len(c.InitAlive) != n {
			return fmt.Errorf("%w: initial alive set has %d entries for cluster of %d", ErrBadConfig, len(c.InitAlive), n)
		}
		if !c.InitAlive[c.Endpoint.ID()] {
			return fmt.Errorf("%w: initial alive set excludes this node", ErrBadConfig)
		}
	}
	return nil
}

// sendReliably sends payload to one peer, retrying transient failures up
// to retries times and reporting each retry to obs.
func sendReliably(ctx context.Context, ep transport.Endpoint, retries int, obs Observer, round, to int, payload []byte) error {
	var err error
	for attempt := 0; attempt <= retries; attempt++ {
		if err = ep.Send(ctx, to, payload); err == nil {
			return nil
		}
		if ctx.Err() != nil {
			break
		}
		if attempt < retries {
			obs.SendRetried(ep.ID(), round, to, attempt+1, err)
		}
	}
	return err
}

// broadcastReliably sends payload to every peer with per-peer retries.
func broadcastReliably(ctx context.Context, ep transport.Endpoint, retries int, obs Observer, round int, payload []byte) (sent int, err error) {
	for to := 0; to < ep.Peers(); to++ {
		if to == ep.ID() {
			continue
		}
		if err := sendReliably(ctx, ep, retries, obs, round, to, payload); err != nil {
			return sent, err
		}
		sent++
	}
	return sent, nil
}

// Outcome is one agent's view of the finished protocol.
type Outcome struct {
	// X is the node's final fragment.
	X float64
	// FullX is the full final allocation as seen by this node. It is
	// populated in Broadcast mode and on the coordinator; other agents
	// in Coordinator mode only learn their own fragment.
	FullX []float64
	// Rounds is the number of re-allocation rounds performed.
	Rounds int
	// Converged reports whether the ε-criterion fired (vs MaxRounds).
	Converged bool
	// MessagesSent counts protocol messages this agent sent.
	MessagesSent int
	// Alive is the node's final live-membership view (Broadcast mode);
	// entries are false for peers declared departed during the run.
	Alive []bool
}

// Run executes the agent until convergence, MaxRounds, or context
// cancellation. It is the caller's responsibility to run one agent per
// node id of the endpoint's cluster.
func Run(ctx context.Context, cfg Config) (Outcome, error) {
	if err := cfg.fill(); err != nil {
		return Outcome{}, err
	}
	switch cfg.Mode {
	case Coordinator:
		if cfg.Endpoint.ID() == cfg.CoordinatorID {
			return runCoordinator(ctx, cfg)
		}
		return runWorker(ctx, cfg)
	default:
		return runBroadcast(ctx, cfg)
	}
}

// group01n returns [0, 1, ..., n-1].
func group01n(n int) []int {
	g := make([]int, n)
	for i := range g {
		g[i] = i
	}
	return g
}

// collectReports receives until the buffer holds `want` reports for
// round, or — when cfg.Quorum is set — until the RoundTimeout deadline
// fires with at least Quorum reporters (including this node); it then
// reports full=false and the caller plans over the partial group. Stale
// rebroadcasts, identical duplicates, and reports from departed nodes —
// normal fallout of retries, faulty links, and churn — are discarded and
// counted, never fatal; conflicting duplicates and impersonation remain
// protocol violations. A report for a round more than one ahead of ours
// is ErrLapped: the cluster quorum-completed rounds without us and our
// state is stale.
func collectReports(ctx context.Context, cfg Config, buf *protocol.RoundBuffer, round, want int, alive []bool) (full bool, err error) {
	id := cfg.Endpoint.ID()
	deadline, cancel := context.WithTimeout(ctx, cfg.RoundTimeout)
	defer cancel()
	for !buf.Complete(round, want) {
		msg, err := cfg.Endpoint.Recv(deadline)
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
				got := buf.Count(round)
				cfg.Observer.TimeoutFired(id, round)
				cfg.Observer.ReportsCollected(id, round, got, want)
				if cfg.Quorum > 0 && got+1 >= cfg.Quorum {
					cfg.Observer.RecoveryEvent(id, round, "quorum", fmt.Sprintf("round completed short with %d of %d reports", got, want))
					return false, nil
				}
				return false, fmt.Errorf("%w: %d of %d reports for round %d", ErrRoundTimeout, got, want, round)
			}
			return false, fmt.Errorf("agent: receiving round %d: %w", round, err)
		}
		env, err := protocol.Decode(msg.Payload)
		if err != nil {
			return false, fmt.Errorf("agent: round %d: %w", round, err)
		}
		if env.Kind != protocol.KindReport {
			return false, fmt.Errorf("%w: unexpected %q message during report collection", ErrProtocol, env.Kind)
		}
		rep := env.Report
		if rep.Node != msg.From {
			return false, fmt.Errorf("%w: node %d sent a report claiming to be node %d", ErrProtocol, msg.From, rep.Node)
		}
		if rep.Round > round+1 {
			return false, fmt.Errorf("%w: node %d is already at round %d while we are at round %d", ErrLapped, rep.Node, rep.Round, round)
		}
		if rep.Round < round {
			// Stale rebroadcast — the round it belongs to already
			// completed, so the data is redundant by construction.
			cfg.Observer.MessageDiscarded(id, round, "stale report")
			continue
		}
		if alive != nil && rep.Node >= 0 && rep.Node < len(alive) && !alive[rep.Node] {
			// A node we already declared departed (its fraction is
			// redistributed). Its late report cannot rejoin this epoch.
			cfg.Observer.MessageDiscarded(id, round, "report from departed node")
			continue
		}
		if err := buf.Add(*rep); err != nil {
			if errors.Is(err, protocol.ErrDuplicateReport) {
				cfg.Observer.MessageDiscarded(id, round, "duplicate report")
				continue
			}
			return false, fmt.Errorf("agent: round %d: %w", round, err)
		}
	}
	cfg.Observer.ReportsCollected(id, round, want, want)
	return true, nil
}

// maskOf fingerprints a planning group as a bitmask (bit i = node i). It
// returns 0 — "unchecked" — when any member falls outside the 64-bit
// range; fill() guarantees n ≤ 64 whenever the fingerprint matters.
func maskOf(group []int) uint64 {
	var m uint64
	for _, gi := range group {
		if gi < 0 || gi >= 64 {
			return 0
		}
		m |= 1 << uint(gi)
	}
	return m
}

// countTrue counts set entries of a boolean membership vector.
func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// aliveGroup returns the ascending index set of live nodes.
func aliveGroup(alive []bool) []int {
	g := make([]int, 0, len(alive))
	for i, a := range alive {
		if a {
			g = append(g, i)
		}
	}
	return g
}

// deltaOf returns the step's delta for node id, or 0 if id is outside the
// planning group.
func deltaOf(step core.Step, group []int, id int) float64 {
	for k, gi := range group {
		if gi == id {
			return step.Delta[k]
		}
	}
	return 0
}

// runBroadcast is the fully decentralized mode: everyone talks to everyone.
// With Quorum/DepartAfter set it also carries the churn protocol: rounds
// may complete short on their deadline, silent peers are declared departed
// after DepartAfter consecutive misses and their fraction redistributed
// over the survivors, and every partial-round step is re-certified against
// Theorem 2 (predicted ΔU ≥ 0) before being applied. Termination fires
// only on full rounds, so the run either converges with every live peer in
// agreement or fails with a typed error — it never exits on a partial view.
func runBroadcast(ctx context.Context, cfg Config) (Outcome, error) {
	ep := cfg.Endpoint
	n := ep.Peers()
	id := ep.ID()
	buf := protocol.NewRoundBuffer(n)

	x := cfg.Init
	out := Outcome{}
	xs := make([]float64, n)
	if cfg.InitFullX != nil {
		copy(xs, cfg.InitFullX)
		x = xs[id]
	}
	alive := make([]bool, n)
	if cfg.InitAlive != nil {
		copy(alive, cfg.InitAlive)
	} else {
		for i := range alive {
			alive[i] = true
		}
	}
	missing := make([]int, n)
	planned := cfg.InitPlanned
	churn := cfg.Quorum > 0
	gs := make([]float64, n)
	hs := make([]float64, n)
	group := make([]int, 0, n)
	groups := [][]int{group} // the single planning group, for core.DynamicAlpha
	alpha := cfg.Alpha
	for round := cfg.StartRound; round < cfg.MaxRounds; round++ {
		if err := ctx.Err(); err != nil {
			return out, fmt.Errorf("agent: canceled at round %d: %w", round, err)
		}
		if cfg.Checkpoint != nil {
			// Save before the round's first send: a crash anywhere in the
			// round resumes here, and the re-broadcast of the identical
			// report is discarded by peers as a benign duplicate.
			if err := cfg.Checkpoint.SaveRound(round, x, xs, alive, planned); err != nil {
				return out, fmt.Errorf("%w: round %d: %v", ErrCheckpoint, round, err)
			}
			cfg.Observer.CheckpointSaved(id, round)
		}
		cfg.Observer.RoundStarted(id, round)
		g, err := cfg.Model.Marginal(x)
		if err != nil {
			return out, fmt.Errorf("agent: round %d: %w", round, err)
		}
		var h float64
		if cfg.DynamicAlphaSafety > 0 || cfg.SecondOrder {
			if h, err = cfg.Model.Curvature(x); err != nil {
				return out, fmt.Errorf("agent: round %d: %w", round, err)
			}
		}
		payload, err := protocol.EncodeReport(protocol.Report{
			Round: round, Node: id, Marginal: g, Alloc: x, Curvature: h, Planned: planned,
		})
		if err != nil {
			return out, err
		}
		for to := 0; to < n; to++ {
			if to == id || !alive[to] {
				continue
			}
			if err := sendReliably(ctx, ep, cfg.SendRetries, cfg.Observer, round, to, payload); err != nil {
				return out, fmt.Errorf("agent: broadcasting round %d: %w", round, err)
			}
			out.MessagesSent++
		}
		want := countTrue(alive) - 1
		full, err := collectReports(ctx, cfg, buf, round, want, alive)
		if err != nil {
			return out, err
		}
		reports := buf.Take(round)
		// The planning group is this node plus the round's reporters, in
		// ascending order — identical on every node that saw the same
		// reports. Each report's fingerprint of the sender's previous
		// planning group must match ours: a mismatch means an earlier
		// round silently split the cluster into different quorum subsets.
		group = group[:0]
		xs[id], gs[id], hs[id] = x, g, h
		for node := 0; node < n; node++ {
			if node == id {
				group = append(group, node)
				continue
			}
			rep, ok := reports[node]
			if !ok {
				continue
			}
			if churn && planned != 0 && rep.Planned != 0 && rep.Planned != planned {
				return out, fmt.Errorf("%w: node %d planned round %d over group %#x, we planned over %#x", ErrDesync, node, round-1, rep.Planned, planned)
			}
			xs[node], gs[node], hs[node] = rep.Alloc, rep.Marginal, rep.Curvature
			group = append(group, node)
		}
		var departed []int
		if churn {
			for node := 0; node < n; node++ {
				if node == id || !alive[node] {
					continue
				}
				if _, ok := reports[node]; ok {
					missing[node] = 0
					continue
				}
				missing[node]++
				if cfg.DepartAfter > 0 && missing[node] >= cfg.DepartAfter {
					departed = append(departed, node)
				}
			}
		}
		if cfg.DynamicAlphaSafety > 0 {
			groups[0] = group
			if dyn := core.DynamicAlpha(gs, hs, groups, cfg.DynamicAlphaSafety); dyn > 0 {
				alpha = dyn
			}
		}
		var step core.Step
		if cfg.SecondOrder {
			step, err = secondorder.PlanStep(xs, gs, hs, group, alpha)
		} else {
			step, err = core.PlanStep(xs, gs, group, alpha)
		}
		if err != nil {
			return out, fmt.Errorf("agent: planning round %d: %w", round, err)
		}
		// Theorem-2 guard: a step planned from a partial report set must
		// still predict ΔU ≥ 0, or it is rejected (a no-op round) —
		// identically on every node planning over the same group.
		reject := false
		// ΔU is the Theorem-2 certificate for the planned step; it doubles
		// as the per-round utility-gain metric reported via StepApplied.
		du, err := core.Ascent(gs, group, step)
		if err != nil {
			return out, fmt.Errorf("agent: certifying round %d: %w", round, err)
		}
		if churn && !full && du < 0 {
			reject = true
			cfg.Observer.RecoveryEvent(id, round, "reject", fmt.Sprintf("partial-round step predicts ΔU = %g < 0", du))
		}
		spread := step.Spread(gs, group)
		cfg.Observer.StepPlanned(id, round, spread, deltaOf(step, group, id))
		if full {
			if spread < cfg.Epsilon {
				out.X = x
				out.FullX = append([]float64(nil), xs...)
				out.Rounds = round
				out.Converged = true
				out.Alive = append([]bool(nil), alive...)
				cfg.Observer.RunFinished(id, out.Rounds, out.Converged)
				return out, nil
			}
			if step.IsNoOp() {
				out.X = x
				out.FullX = append([]float64(nil), xs...)
				out.Rounds = round
				out.Alive = append([]bool(nil), alive...)
				cfg.Observer.RunFinished(id, out.Rounds, out.Converged)
				return out, nil
			}
		}
		if !reject {
			if err := step.Apply(xs, group); err != nil {
				return out, fmt.Errorf("agent: applying round %d: %w", round, err)
			}
			x = xs[id]
			cfg.Observer.StepApplied(id, round, du, len(group))
		}
		planned = maskOf(group)
		if len(departed) > 0 {
			for _, d := range departed {
				alive[d] = false
				cfg.Observer.RecoveryEvent(id, round, "depart", fmt.Sprintf("node %d missed %d consecutive rounds; redistributing its fraction", d, missing[d]))
			}
			// Feasibility-preserving redistribution (Theorem 1): the
			// survivors rescale their own mutually-known fragments to sum
			// to exactly 1, identically on every survivor.
			if err := core.Renormalize(xs, aliveGroup(alive)); err != nil {
				return out, fmt.Errorf("agent: redistributing after round %d: %w", round, err)
			}
			x = xs[id]
		}
	}
	out.X = x
	out.FullX = append([]float64(nil), xs...)
	out.Rounds = cfg.MaxRounds
	out.Alive = append([]bool(nil), alive...)
	cfg.Observer.RunFinished(id, out.Rounds, out.Converged)
	return out, nil
}

// runCoordinator is the central agent of Coordinator mode: it collects
// reports, plans the identical step the broadcast mode would, and
// distributes the full delta vector.
func runCoordinator(ctx context.Context, cfg Config) (Outcome, error) {
	ep := cfg.Endpoint
	n := ep.Peers()
	id := ep.ID()
	group := group01n(n)
	groups := [][]int{group}
	steps := make([]core.Step, 1)
	buf := protocol.NewRoundBuffer(n)

	x := cfg.Init
	out := Outcome{}
	xs := make([]float64, n)
	gs := make([]float64, n)
	for round := 0; round < cfg.MaxRounds; round++ {
		if err := ctx.Err(); err != nil {
			return out, fmt.Errorf("agent: canceled at round %d: %w", round, err)
		}
		cfg.Observer.RoundStarted(id, round)
		g, err := cfg.Model.Marginal(x)
		if err != nil {
			return out, fmt.Errorf("agent: round %d: %w", round, err)
		}
		if _, err := collectReports(ctx, cfg, buf, round, n-1, nil); err != nil {
			return out, err
		}
		reports := buf.Take(round)
		xs[id], gs[id] = x, g
		for node, rep := range reports {
			xs[node], gs[node] = rep.Alloc, rep.Marginal
		}
		plan, err := core.PlanRound(steps, xs, gs, groups, cfg.Alpha, cfg.Epsilon, false)
		if err != nil {
			return out, fmt.Errorf("agent: planning round %d: %w", round, err)
		}
		step := steps[0]
		cfg.Observer.StepPlanned(id, round, plan.Spread, step.Delta[id])
		done := plan.Converged || !plan.Movable
		payload, err := protocol.EncodeUpdate(protocol.Update{Round: round, Delta: step.Delta, Done: done})
		if err != nil {
			return out, err
		}
		sent, err := broadcastReliably(ctx, ep, cfg.SendRetries, cfg.Observer, round, payload)
		out.MessagesSent += sent
		if err != nil {
			return out, fmt.Errorf("agent: distributing round %d: %w", round, err)
		}
		if done {
			out.X = x
			out.FullX = append([]float64(nil), xs...)
			out.Rounds = round
			out.Converged = plan.Converged
			cfg.Observer.RunFinished(id, out.Rounds, out.Converged)
			return out, nil
		}
		du, err := core.Ascent(gs, group, step)
		if err != nil {
			return out, fmt.Errorf("agent: certifying round %d: %w", round, err)
		}
		cfg.Observer.StepApplied(id, round, du, len(group))
		x += step.Delta[id]
		if x < 0 && x > -1e-9 {
			x = 0
		}
	}
	out.X = x
	out.Rounds = cfg.MaxRounds
	cfg.Observer.RunFinished(id, out.Rounds, out.Converged)
	return out, nil
}

// runWorker is a non-coordinator node in Coordinator mode.
func runWorker(ctx context.Context, cfg Config) (Outcome, error) {
	ep := cfg.Endpoint
	id := ep.ID()
	x := cfg.Init
	out := Outcome{}
	for round := 0; round < cfg.MaxRounds; round++ {
		if err := ctx.Err(); err != nil {
			return out, fmt.Errorf("agent: canceled at round %d: %w", round, err)
		}
		cfg.Observer.RoundStarted(id, round)
		g, err := cfg.Model.Marginal(x)
		if err != nil {
			return out, fmt.Errorf("agent: round %d: %w", round, err)
		}
		payload, err := protocol.EncodeReport(protocol.Report{Round: round, Node: id, Marginal: g, Alloc: x})
		if err != nil {
			return out, err
		}
		if err := sendReliably(ctx, ep, cfg.SendRetries, cfg.Observer, round, cfg.CoordinatorID, payload); err != nil {
			return out, fmt.Errorf("agent: reporting round %d: %w", round, err)
		}
		out.MessagesSent++

		update, err := awaitUpdate(ctx, cfg, round)
		if err != nil {
			return out, err
		}
		if update.Done {
			out.X = x
			out.Rounds = round
			out.Converged = true
			cfg.Observer.RunFinished(id, out.Rounds, out.Converged)
			return out, nil
		}
		if id >= len(update.Delta) {
			return out, fmt.Errorf("%w: update with %d deltas for node %d", ErrProtocol, len(update.Delta), id)
		}
		x += update.Delta[id]
		if x < 0 && x > -1e-9 {
			x = 0
		}
	}
	out.X = x
	out.Rounds = cfg.MaxRounds
	cfg.Observer.RunFinished(id, out.Rounds, out.Converged)
	return out, nil
}

// awaitUpdate waits for the coordinator's round update. Updates for past
// rounds (duplicated or re-delivered late) are discarded; an update for a
// *future* round means this worker's report was skipped and lockstep is
// broken — a protocol violation.
func awaitUpdate(ctx context.Context, cfg Config, round int) (*protocol.Update, error) {
	id := cfg.Endpoint.ID()
	deadline, cancel := context.WithTimeout(ctx, cfg.RoundTimeout)
	defer cancel()
	for {
		msg, err := cfg.Endpoint.Recv(deadline)
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
				cfg.Observer.TimeoutFired(id, round)
				return nil, fmt.Errorf("%w: waiting for round %d update", ErrRoundTimeout, round)
			}
			return nil, fmt.Errorf("agent: receiving round %d update: %w", round, err)
		}
		env, err := protocol.Decode(msg.Payload)
		if err != nil {
			return nil, fmt.Errorf("agent: round %d: %w", round, err)
		}
		if env.Kind != protocol.KindUpdate {
			return nil, fmt.Errorf("%w: unexpected %q message while awaiting update", ErrProtocol, env.Kind)
		}
		if env.Update.Round < round {
			cfg.Observer.MessageDiscarded(id, round, "stale update")
			continue
		}
		if env.Update.Round > round {
			return nil, fmt.Errorf("%w: update for round %d while in round %d", ErrProtocol, env.Update.Round, round)
		}
		return env.Update, nil
	}
}
