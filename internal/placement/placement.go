// Package placement is the adaptive table-placement subsystem: it observes
// the lookup traffic a run actually serves (not the analytic expectation a
// static planner works from), and decides — once per rebalance epoch —
// whether moving a table or mirroring the hottest tables pays for its
// migration traffic. It keeps the statistics, the search and the
// bookkeeping; the prices come from a Pricer, which the retrieval layer
// builds from the walks' own stage costs.
//
// Everything here is deterministic: statistics are exponential moving
// averages folded in batch order, the search breaks every tie by table or
// GPU id, and the controller never consults a clock or an RNG. Two runs
// feeding identical batches make identical placement decisions, which is
// what lets the retrieval layer keep its bit-exactness gates with
// rebalancing enabled.
package placement

import (
	"fmt"
	"math"
	"slices"
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
	// HotTables is the mirror budget: the controller may mirror up to this
	// many of the hottest tables on every GPU (selective replication), when
	// the price says it pays. 0 disables mirroring.
	HotTables int
}

// alpha is the statistics' EMA smoothing factor.
const alpha = 0.25

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

// Stats is the deterministic access-statistics collector, folded one batch
// at a time in batch order as exponential moving averages: per table, its
// lookup count; per (table, consumer GPU), the Counts a layout's price is
// rebuilt from; and per (table, node), the distinct rows the node's
// consumers reference. The feed path allocates nothing after construction.
type Stats struct {
	batches  int
	gpus     int
	table    []float64 // per-table EMA of per-batch lookup counts
	tmpTable []float64
	pair     []Counts // [table*GPUs+consumer]
	tmpPair  []Counts
	node     []float64 // node-level distinct rows, [table*GPUs+node]: at most one node per GPU
	tmpNode  []float64
	// mirrored marks the open batch's tables whose layout-dependent counts
	// it did not observe.
	mirrored []bool
}

// Counts is one (table, consumer GPU) pair's statistics for a batch. A
// layout's pair sums are exact sums of these over the owner's tables.
type Counts struct {
	// Refs, Vecs and Bags are the table's references, non-empty bags and
	// samples over the consumer's minibatch: the same under every layout.
	Refs, Vecs, Bags float64
	// CacheVecs and CacheIdx are the consumer's hot-row cache hits on the
	// table (vectors and their references), and Uniq the distinct rows among
	// the references its owner serves. They depend on the layout, and a
	// batch that mirrors the table observes none of them.
	CacheVecs, CacheIdx, Uniq float64
}

// NewStats builds a collector for cfg's table population.
func NewStats(cfg Config) *Stats {
	pairs := cfg.Tables * cfg.GPUs
	return &Stats{
		gpus:     cfg.GPUs,
		table:    make([]float64, cfg.Tables),
		tmpTable: make([]float64, cfg.Tables),
		pair:     make([]Counts, pairs),
		tmpPair:  make([]Counts, pairs),
		node:     make([]float64, pairs),
		tmpNode:  make([]float64, pairs),
		mirrored: make([]bool, cfg.Tables),
	}
}

// Batches returns how many batches have been folded in.
func (st *Stats) Batches() int { return st.batches }

// BeginBatch starts a new batch's accumulation.
func (st *Stats) BeginBatch() {
	clear(st.tmpTable)
	clear(st.tmpPair)
	clear(st.tmpNode)
	clear(st.mirrored)
}

// AddTable accumulates count lookups against table t for the open batch.
func (st *Stats) AddTable(t int, count float64) { st.tmpTable[t] += count }

// Open returns the open batch's counts of table t at consumer c, for the
// recorder to add into.
func (st *Stats) Open(t, c int) *Counts { return &st.tmpPair[t*st.gpus+c] }

// AddNodeUniq accumulates n distinct rows of table t referenced by node's
// consumers for the open batch.
func (st *Stats) AddNodeUniq(t, node int, n float64) { st.tmpNode[t*st.gpus+node] += n }

// Mirrored marks table t as mirrored in the open batch: its layout-dependent
// counts keep their averages instead of folding in the batch's zeros.
func (st *Stats) Mirrored(t int) { st.mirrored[t] = true }

// EndBatch folds the open batch into the EMA. The first batch seeds the
// average directly (no zero-warmup bias).
func (st *Stats) EndBatch() {
	st.batches++
	if st.batches == 1 {
		copy(st.table, st.tmpTable)
		copy(st.pair, st.tmpPair)
		copy(st.node, st.tmpNode)
		return
	}
	for i, x := range st.tmpTable {
		fold(&st.table[i], x)
	}
	for i := range st.tmpPair {
		a, x := &st.pair[i], &st.tmpPair[i]
		fold(&a.Refs, x.Refs)
		fold(&a.Vecs, x.Vecs)
		fold(&a.Bags, x.Bags)
		if st.mirrored[i/st.gpus] {
			continue
		}
		fold(&a.CacheVecs, x.CacheVecs)
		fold(&a.CacheIdx, x.CacheIdx)
		fold(&a.Uniq, x.Uniq)
	}
	for i, x := range st.tmpNode {
		if !st.mirrored[i/st.gpus] {
			fold(&st.node[i], x)
		}
	}
}

// fold moves the average toward x by the smoothing factor.
func fold(avg *float64, x float64) { *avg += float64(alpha * (x - *avg)) }

// Loads returns the per-table EMA of per-batch lookup counts. The returned
// slice is the collector's own; callers must not mutate or retain it across
// EndBatch calls.
func (st *Stats) Loads() []float64 { return st.table }

// Pair returns the averaged counts of table t at consumer c.
func (st *Stats) Pair(t, c int) Counts { return st.pair[t*st.gpus+c] }

// NodeUniq returns the averaged distinct rows of table t that node's
// consumers reference.
func (st *Stats) NodeUniq(t, node int) float64 { return st.node[t*st.gpus+node] }

// Pricer prices layouts for the controller. A layout is owner[t], the GPU
// that owns table t, and hot[t], whether table t is mirrored on every GPU.
type Pricer interface {
	// Batch returns the layout's priced batch under st's statistics, in
	// seconds, once per transport the run may use: the slowest GPU's under
	// each. The slice is the pricer's own, valid until its next call, and
	// always has the same length.
	Batch(st *Stats, owner []int, hot []bool) []float64
	// Migration returns the uncontended makespan, in seconds, of the sends
	// that install a layout: every move's table from its old owner to its
	// new one, and every new mirror from its owner under owner to every
	// other GPU.
	Migration(owner []int, moves []Move, newMirrors []int) float64
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
	// no candidate paid for its migration).
	Plan [][]int
	// Hot is the mirror set, table ids ascending (nil when none).
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
	// Gain is the epoch's priced saving, in seconds, under the transport
	// that saves least: the incumbent's priced batch over the epoch, less
	// the adopted layout's plus its migration (0 when the incumbent stays).
	Gain float64
}

// Controller owns the epoch lifecycle: it carries the current effective plan
// and mirror set, exposes the Stats collector the route-plan compiler feeds,
// and turns accumulated observations into Rebalance decisions priced by its
// Pricer.
type Controller struct {
	cfg     Config
	pricer  Pricer
	stats   *Stats
	plan    [][]int
	hot     []int
	hotMask []bool
	swaps   int
}

// NewController validates cfg and the initial plan and builds a controller
// that prices layouts with pricer. The initial plan is deep-copied.
func NewController(cfg Config, pricer Pricer, initial [][]int) (*Controller, error) {
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
		pricer:  pricer,
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

// Rebalance decides the next epoch's layout by price. A layout's epoch cost
// under a transport is its priced batch times RebalanceEvery plus the
// migration that installs it from the incumbent, and its regret is the
// largest rise of that cost over the incumbent's across the transports.
// From the incumbent (regret 0) the search descends, one step at a time, to
// the neighbour with the lowest regret, until no neighbour lowers it. A
// neighbour moves one table to another GPU with room, or mirrors a prefix of
// the HotSet ranking of size 0 to HotTables, so HotTables is a budget. The
// result is adopted when its regret is negative, that is, when it pays
// for its migration within the epoch under every transport. Ties keep the
// first neighbour in (mirror prefix, table, GPU) order, so a decision is a
// pure function of the statistics. With no batches observed it returns the
// current state unchanged.
func (c *Controller) Rebalance() (*Rebalance, error) {
	if c.stats.Batches() == 0 {
		return &Rebalance{Plan: c.plan, Hot: c.hot}, nil
	}
	se := c.newSearch()
	var regret float64
	for {
		best, mirror, table, gpu := regret, -1, -1, -1
		for k, mask := range se.prefixes {
			if slices.Equal(mask, se.hot) {
				continue
			}
			prev := se.hot
			se.hot = mask
			if r := se.regret(); r < best {
				best, mirror, table = r, k, -1
			}
			se.hot = prev
		}
		for t, from := range se.owner {
			for g := 0; g < c.cfg.GPUs; g++ {
				if g == from || !se.fits(t, g) {
					continue
				}
				se.owner[t] = g
				if r := se.regret(); r < best {
					best, mirror, table, gpu = r, -1, t, g
				}
				se.owner[t] = from
			}
		}
		switch {
		case mirror >= 0:
			se.hot = se.prefixes[mirror]
		case table >= 0:
			se.move(table, gpu)
		default:
			return c.adopt(se, regret), nil
		}
		regret = best
	}
}

// adopt installs the search's layout when its regret is negative and returns
// the decision; otherwise the decision keeps the incumbent.
func (c *Controller) adopt(se *search, regret float64) *Rebalance {
	rb := &Rebalance{Plan: c.plan, Hot: c.hot}
	if regret >= 0 {
		return rb
	}
	rb.Gain = -regret
	plan := make([][]int, c.cfg.GPUs)
	for t, g := range se.owner {
		plan[g] = append(plan[g], t)
	}
	if rb.Moves = Moves(c.plan, plan); len(rb.Moves) > 0 {
		rb.Swapped = true
		rb.Plan = plan
		rb.MoveBytes = MoveBytes(rb.Moves, c.cfg.TableBytes)
		c.plan = plan
		c.swaps++
	}
	// Mirror installs: each newly hot table is copied from its owner to
	// every other GPU. Tables leaving the hot set are simply dropped (no
	// traffic — the primary shard is the truth).
	rb.Hot = nil
	for t, h := range se.hot {
		if !h {
			continue
		}
		rb.Hot = append(rb.Hot, t)
		if !c.hotMask[t] {
			rb.NewMirrors = append(rb.NewMirrors, t)
			rb.MirrorBytes += c.cfg.TableBytes[t] * int64(c.cfg.GPUs-1)
		}
	}
	c.hot = rb.Hot
	c.hotMask = slices.Clone(se.hot)
	return rb
}

// search is one epoch's candidate layout, measured against the incumbent.
type search struct {
	c        *Controller
	owner    []int     // the candidate's owner per table
	hot      []bool    // the candidate's mirror mask
	prefixes [][]bool  // the mirror masks of HotSet prefixes 0..HotTables
	used     []int64   // the candidate's primary-shard bytes per GPU
	from     []int     // the incumbent's owner per table
	base     []float64 // the incumbent's priced batch per transport
	moves    []Move    // scratch
	mirrors  []int     // scratch
}

func (c *Controller) newSearch() *search {
	se := &search{c: c, owner: make([]int, c.cfg.Tables), used: make([]int64, c.cfg.GPUs)}
	for g, shard := range c.plan {
		for _, t := range shard {
			se.owner[t] = g
			se.used[g] += c.cfg.TableBytes[t]
		}
	}
	se.from = slices.Clone(se.owner)
	se.hot = c.hotMask
	se.base = slices.Clone(c.pricer.Batch(c.stats, se.owner, se.hot))
	budget := c.cfg.HotTables
	if c.cfg.GPUs == 1 {
		budget = 0 // nothing to mirror onto
	}
	for k := 0; k <= budget; k++ {
		mask := make([]bool, c.cfg.Tables)
		for _, t := range HotSet(c.stats.Loads(), k) {
			mask[t] = true
		}
		se.prefixes = append(se.prefixes, mask)
	}
	return se
}

// fits reports whether table t fits on GPU g under the capacity bound.
func (se *search) fits(t, g int) bool {
	cfg := se.c.cfg
	return cfg.CapacityBytes <= 0 || se.used[g]+cfg.TableBytes[t] <= cfg.CapacityBytes
}

// move gives table t to GPU g.
func (se *search) move(t, g int) {
	b := se.c.cfg.TableBytes[t]
	se.used[se.owner[t]] -= b
	se.used[g] += b
	se.owner[t] = g
}

// regret returns the candidate's regret: the largest rise, across the
// transports, of its epoch cost — its priced batch over the epoch plus the
// migration that installs it from the incumbent — over the incumbent's.
func (se *search) regret() float64 {
	c := se.c
	se.moves, se.mirrors = se.moves[:0], se.mirrors[:0]
	for t, g := range se.owner {
		if g != se.from[t] {
			se.moves = append(se.moves, Move{Table: t, From: se.from[t], To: g})
		}
		if se.hot[t] && !c.hotMask[t] {
			se.mirrors = append(se.mirrors, t)
		}
	}
	var migration float64
	if len(se.moves)+len(se.mirrors) > 0 {
		migration = c.pricer.Migration(se.owner, se.moves, se.mirrors)
	}
	epoch := float64(c.cfg.RebalanceEvery)
	regret := math.Inf(-1)
	for i, p := range c.pricer.Batch(c.stats, se.owner, se.hot) {
		regret = max(regret, float64((p-se.base[i])*epoch)+migration)
	}
	return regret
}

func clonePlan(plan [][]int) [][]int {
	out := make([][]int, len(plan))
	for g := range plan {
		out[g] = append([]int(nil), plan[g]...)
	}
	return out
}
