// Package placement is the adaptive table-placement subsystem: it observes
// the lookup traffic a run actually serves (not the analytic expectation a
// static planner works from), scores candidate sharding plans with a simple
// gather-time + wire-bytes cost model, and decides — once per rebalance
// epoch — whether moving shards or mirroring the hottest tables pays for its
// migration traffic.
//
// Everything here is deterministic: statistics are exponential moving
// averages folded in batch order, planners break every tie by table or GPU
// id, and the controller never consults a clock or an RNG. Two runs feeding
// identical batches make identical placement decisions, which is what lets
// the retrieval layer keep its bit-exactness gates with rebalancing enabled.
package placement

import (
	"fmt"
	"sort"
)

// Config sizes the subsystem for one machine.
type Config struct {
	// Tables is the total embedding-table count.
	Tables int
	// GPUs is the device count plans are laid out over.
	GPUs int
	// TableBytes[t] is table t's device-memory footprint (len Tables).
	TableBytes []int64
	// CapacityBytes bounds the primary-shard bytes one GPU may hold
	// (device capacity minus the run's non-shard allocations). 0 means
	// unbounded.
	CapacityBytes int64
	// RebalanceEvery is the epoch length in batches: Due fires at every
	// positive multiple.
	RebalanceEvery int
	// HotTables mirrors the top-K hottest tables on every GPU (selective
	// replication). 0 disables mirroring.
	HotTables int
}

const (
	// alpha is the statistics' EMA smoothing factor.
	alpha = 0.25
	// hysteresis is the minimum fractional cost improvement a candidate
	// plan must show before the controller swaps (migration is not free).
	hysteresis = 0.05
)

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Tables <= 0:
		return fmt.Errorf("placement: Tables must be positive")
	case c.GPUs <= 0:
		return fmt.Errorf("placement: GPUs must be positive")
	case len(c.TableBytes) != c.Tables:
		return fmt.Errorf("placement: TableBytes has %d entries for %d tables", len(c.TableBytes), c.Tables)
	case c.RebalanceEvery <= 0:
		return fmt.Errorf("placement: RebalanceEvery must be positive")
	case c.HotTables < 0:
		return fmt.Errorf("placement: negative HotTables %d", c.HotTables)
	case c.HotTables >= c.Tables:
		return fmt.Errorf("placement: HotTables %d must leave at least one unmirrored table (%d total)",
			c.HotTables, c.Tables)
	}
	for t, b := range c.TableBytes {
		if b <= 0 {
			return fmt.Errorf("placement: table %d has non-positive footprint %d", t, b)
		}
	}
	return nil
}

// Stats is the deterministic access-statistics collector: a per-table EMA
// of lookup counts, folded one batch at a time in batch order. The feed path
// allocates nothing after construction.
type Stats struct {
	batches  int
	table    []float64 // per-table EMA of per-batch lookup counts
	tmpTable []float64
}

// NewStats builds a collector for cfg's table population.
func NewStats(cfg Config) *Stats {
	return &Stats{
		table:    make([]float64, cfg.Tables),
		tmpTable: make([]float64, cfg.Tables),
	}
}

// Batches returns how many batches have been folded in.
func (st *Stats) Batches() int { return st.batches }

// BeginBatch starts a new batch's accumulation.
func (st *Stats) BeginBatch() {
	for i := range st.tmpTable {
		st.tmpTable[i] = 0
	}
}

// AddTable accumulates count lookups against table t for the open batch.
func (st *Stats) AddTable(t int, count float64) { st.tmpTable[t] += count }

// EndBatch folds the open batch into the EMA. The first batch seeds the
// average directly (no zero-warmup bias).
func (st *Stats) EndBatch() {
	if st.batches == 0 {
		copy(st.table, st.tmpTable)
		st.batches++
		return
	}
	for i, x := range st.tmpTable {
		st.table[i] += float64(alpha * (x - st.table[i]))
	}
	st.batches++
}

// Loads returns the per-table EMA of per-batch lookup counts. The returned
// slice is the collector's own; callers must not mutate or retain it across
// EndBatch calls.
func (st *Stats) Loads() []float64 { return st.table }

// CostModel prices a candidate plan. All terms are per batch and derived
// from observed loads: a GPU's service time is the lookup volume it gathers
// out of HBM plus the cold vectors it ships over its own egress links —
// both are paid by the OWNER, so colocating hot tables hurts twice. Mirrored
// (hot) tables split their gather load across every GPU and leave the wire
// entirely.
type CostModel struct {
	// GPUs is the device count.
	GPUs int
	// VectorBytes is the per-lookup HBM read (= one embedding row).
	VectorBytes int
	// HBMBandwidth is the per-device gather read rate, bytes/second.
	HBMBandwidth float64
	// WireBandwidth is one owner's egress rate to a peer, bytes/second.
	// 0 drops the wire term.
	WireBandwidth float64
}

// Score is a plan's predicted per-batch cost under observed loads.
type Score struct {
	// OwnerTime[g] is GPU g's expected service time: HBM gather plus the
	// egress wire time of its cold (unmirrored) shards.
	OwnerTime []float64
	// MaxOwnerTime is the slowest owner's service time — the makespan term
	// rebalancing minimises.
	MaxOwnerTime float64
	// WireBytes is the expected off-owner vector traffic across all owners.
	WireBytes float64
	// Total is the comparable plan cost (= MaxOwnerTime: the EMB layer is
	// barrier-synchronised, so the slowest owner is the batch).
	Total float64
}

// Score prices plan under loads. hot[t] marks tables mirrored on every GPU
// (nil means none).
func (m CostModel) Score(plan [][]int, loads []float64, hot []bool) Score {
	sc := Score{OwnerTime: make([]float64, m.GPUs)}
	vb := float64(m.VectorBytes)
	g64 := float64(m.GPUs)
	var hotShare float64
	for t, l := range loads {
		if hot != nil && hot[t] {
			hotShare += l / g64
		}
	}
	for g, shard := range plan {
		reads := hotShare
		var coldWire float64
		for _, t := range shard {
			if hot != nil && hot[t] {
				continue
			}
			reads += loads[t]
			coldWire += float64(loads[t] * (g64 - 1) / g64 * vb)
		}
		sc.WireBytes += coldWire
		ot := reads * vb / m.HBMBandwidth
		if m.WireBandwidth > 0 {
			ot += coldWire / m.WireBandwidth
		}
		sc.OwnerTime[g] = ot
		if ot > sc.MaxOwnerTime {
			sc.MaxOwnerTime = ot
		}
	}
	sc.Total = sc.MaxOwnerTime
	return sc
}

// LPT builds a capacity-respecting longest-processing-time plan over
// OBSERVED loads: tables descend by load (ties: lower id first) onto the
// least-loaded GPU with room. Shards come back sorted by table id, matching
// the static planners' layout convention. Errors when some table fits on no
// GPU.
func LPT(loads []float64, tableBytes []int64, gpus int, capacity int64) ([][]int, error) {
	n := len(loads)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ta, tb := order[a], order[b]
		if loads[ta] != loads[tb] {
			return loads[ta] > loads[tb]
		}
		return ta < tb
	})
	plan := make([][]int, gpus)
	assigned := make([]float64, gpus)
	used := make([]int64, gpus)
	for _, t := range order {
		best := -1
		for g := 0; g < gpus; g++ {
			if capacity > 0 && used[g]+tableBytes[t] > capacity {
				continue
			}
			if best < 0 || assigned[g] < assigned[best] {
				best = g
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("placement: table %d (%d bytes) fits on no GPU under capacity %d",
				t, tableBytes[t], capacity)
		}
		plan[best] = append(plan[best], t)
		assigned[best] += loads[t]
		used[best] += tableBytes[t]
	}
	for g := range plan {
		sort.Ints(plan[g])
	}
	return plan, nil
}

// HotSet returns the k hottest table ids by load (ties: lower id), sorted
// ascending. k is clamped to len(loads).
func HotSet(loads []float64, k int) []int {
	if k <= 0 {
		return nil
	}
	if k > len(loads) {
		k = len(loads)
	}
	order := make([]int, len(loads))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ta, tb := order[a], order[b]
		if loads[ta] != loads[tb] {
			return loads[ta] > loads[tb]
		}
		return ta < tb
	})
	hot := append([]int(nil), order[:k]...)
	sort.Ints(hot)
	return hot
}

// ValidatePlan checks that plan assigns every table exactly once, references
// only valid ids, and (when capacity > 0) fits every GPU's shard.
func ValidatePlan(plan [][]int, tables int, tableBytes []int64, capacity int64) error {
	seen := make([]bool, tables)
	count := 0
	for g, shard := range plan {
		var bytes int64
		for _, t := range shard {
			if t < 0 || t >= tables {
				return fmt.Errorf("placement: GPU %d references table %d (have %d)", g, t, tables)
			}
			if seen[t] {
				return fmt.Errorf("placement: table %d assigned twice", t)
			}
			seen[t] = true
			count++
			bytes += tableBytes[t]
		}
		if capacity > 0 && bytes > capacity {
			return fmt.Errorf("placement: GPU %d's shard needs %d bytes, capacity %d", g, bytes, capacity)
		}
	}
	if count != tables {
		return fmt.Errorf("placement: plan covers %d of %d tables", count, tables)
	}
	return nil
}

// Move is one table migration: its whole shard travels From → To.
type Move struct {
	Table    int
	From, To int
}

// Moves diffs two plans into the per-table migrations that transform old
// into new, in table-id order.
func Moves(old, new [][]int) []Move {
	owner := map[int]int{}
	for g, shard := range old {
		for _, t := range shard {
			owner[t] = g
		}
	}
	var moves []Move
	for g, shard := range new {
		for _, t := range shard {
			if from, ok := owner[t]; ok && from != g {
				moves = append(moves, Move{Table: t, From: from, To: g})
			}
		}
	}
	sort.Slice(moves, func(a, b int) bool { return moves[a].Table < moves[b].Table })
	return moves
}

// MoveBytes totals the migration payload of moves.
func MoveBytes(moves []Move, tableBytes []int64) int64 {
	var total int64
	for _, m := range moves {
		total += tableBytes[m.Table]
	}
	return total
}

// Rebalance is one epoch decision: the plan to run the next epoch on, the
// hot set to mirror, and the migration traffic the decision costs.
type Rebalance struct {
	// Swapped reports whether the plan changed (Moves non-empty).
	Swapped bool
	// Plan is the effective plan for the next epoch (the current one when
	// the candidate did not clear hysteresis).
	Plan [][]int
	// Hot is the new mirror set, table ids ascending (nil when mirroring
	// is off or nothing qualifies).
	Hot []int
	// NewMirrors are the Hot entries not mirrored before this decision —
	// the ones whose install traffic must be charged.
	NewMirrors []int
	// Moves are the shard migrations (empty when not Swapped).
	Moves []Move
	// MoveBytes is the shard-migration payload.
	MoveBytes int64
	// MirrorBytes is the mirror-install payload: each new mirror copied to
	// every other GPU.
	MirrorBytes int64
	// Gain is the candidate plan's fractional cost improvement over the
	// current plan (reported even when below hysteresis).
	Gain float64
}

// Controller owns the epoch lifecycle: it carries the current effective plan
// and mirror set, exposes the Stats collector the route-plan compiler feeds,
// and turns accumulated observations into Rebalance decisions.
type Controller struct {
	cfg     Config
	model   CostModel
	stats   *Stats
	plan    [][]int
	hot     []int
	hotMask []bool
	swaps   int
}

// NewController validates cfg and the initial plan and builds a controller.
// The initial plan is deep-copied.
func NewController(cfg Config, model CostModel, initial [][]int) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(initial) != cfg.GPUs {
		return nil, fmt.Errorf("placement: initial plan has %d shards for %d GPUs", len(initial), cfg.GPUs)
	}
	if err := ValidatePlan(initial, cfg.Tables, cfg.TableBytes, cfg.CapacityBytes); err != nil {
		return nil, fmt.Errorf("placement: bad initial plan: %w", err)
	}
	return &Controller{
		cfg:     cfg,
		model:   model,
		stats:   NewStats(cfg),
		plan:    clonePlan(initial),
		hotMask: make([]bool, cfg.Tables),
	}, nil
}

// Config returns the controller's configuration.
func (c *Controller) Config() Config { return c.cfg }

// Stats returns the collector the route-plan compiler feeds.
func (c *Controller) Stats() *Stats { return c.stats }

// Plan returns the current effective plan (shared; do not mutate).
func (c *Controller) Plan() [][]int { return c.plan }

// Hot returns the current mirror set, ascending (shared; do not mutate).
func (c *Controller) Hot() []int { return c.hot }

// Rebalances returns how many plan swaps the controller has committed.
func (c *Controller) Rebalances() int { return c.swaps }

// Due reports whether batch is a rebalance boundary: a positive multiple of
// RebalanceEvery (batch 0 runs on the initial plan — there is nothing
// observed yet to act on).
func (c *Controller) Due(batch int) bool {
	return batch > 0 && batch%c.cfg.RebalanceEvery == 0
}

// Rebalance recomputes placement from the observed loads: an LPT candidate
// plan (swapped in only when it clears hysteresis against the cost model)
// and the top-K mirror set, with the migration traffic both decisions cost.
// With no batches observed it returns the current state unchanged.
func (c *Controller) Rebalance() (*Rebalance, error) {
	rb := &Rebalance{Plan: c.plan, Hot: c.hot}
	if c.stats.Batches() == 0 {
		return rb, nil
	}
	loads := c.stats.Loads()

	// Mirror selection first: LPT balances the EFFECTIVE load, and a
	// mirrored table's gather splits across every GPU.
	var hot []int
	if c.cfg.HotTables > 0 && c.cfg.GPUs > 1 {
		hot = HotSet(loads, c.cfg.HotTables)
	}
	hotMask := make([]bool, c.cfg.Tables)
	for _, t := range hot {
		hotMask[t] = true
	}
	eff := make([]float64, len(loads))
	for t, l := range loads {
		if hotMask[t] {
			l /= float64(c.cfg.GPUs)
		}
		eff[t] = l
	}

	cand, err := LPT(eff, c.cfg.TableBytes, c.cfg.GPUs, c.cfg.CapacityBytes)
	if err != nil {
		return nil, err
	}
	cur := c.model.Score(c.plan, loads, hotMask)
	next := c.model.Score(cand, loads, hotMask)
	if cur.Total > 0 {
		rb.Gain = (cur.Total - next.Total) / cur.Total
	}
	if rb.Gain >= hysteresis {
		rb.Moves = Moves(c.plan, cand)
	}
	if len(rb.Moves) > 0 {
		rb.Swapped = true
		rb.Plan = cand
		rb.MoveBytes = MoveBytes(rb.Moves, c.cfg.TableBytes)
		c.plan = cand
		c.swaps++
	}

	// Mirror installs: each newly hot table is copied from its owner to
	// every other GPU. Tables leaving the hot set are simply dropped (no
	// traffic — the primary shard is the truth).
	for _, t := range hot {
		if !c.hotMask[t] {
			rb.NewMirrors = append(rb.NewMirrors, t)
			rb.MirrorBytes += c.cfg.TableBytes[t] * int64(c.cfg.GPUs-1)
		}
	}
	rb.Hot = hot
	c.hot = hot
	c.hotMask = hotMask
	return rb, nil
}

func clonePlan(plan [][]int) [][]int {
	out := make([][]int, len(plan))
	for g := range plan {
		out[g] = append([]int(nil), plan[g]...)
	}
	return out
}
