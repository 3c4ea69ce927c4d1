package exp

import (
	"context"
	"fmt"
	"slices"

	"facil/internal/soc"
	"facil/internal/workload"
)

// Run executes an experiment by its DESIGN.md identifier and returns the
// rendered tables. No experiment starts under an already-cancelled ctx;
// ported experiments fan their sweep points out over the lab's worker
// pool and honor ctx cancellation between points.
func (l *Lab) Run(ctx context.Context, id string) ([]Table, error) {
	e, ok := lookup(id)
	if !ok {
		return nil, fmt.Errorf("exp: unknown experiment %q (known: %v)", id, IDs())
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return e.run(ctx, l)
}

// IDs lists the registered experiment identifiers in sorted order.
func IDs() []string {
	ids := slices.Clone(AllIDs)
	slices.Sort(ids)
	return ids
}

// experiment is one registry entry: the identifier, its one-line title
// and the runner producing its tables under a cancellation context.
type experiment struct {
	id, title string
	run       func(ctx context.Context, l *Lab) ([]Table, error)
}

// single wraps a one-table experiment's result.
func single(t Table, err error) ([]Table, error) {
	if err != nil {
		return nil, err
	}
	return []Table{t}, nil
}

// experiments is the registry, in DESIGN.md order. AllIDs, Catalog,
// Known and IDs all derive from it, so listings cannot drift from the
// runners.
var experiments = []experiment{
	{"fig2a", "decode time breakdown (motivation)", func(ctx context.Context, l *Lab) ([]Table, error) {
		return single(l.Fig2a())
	}},
	{"fig2b", "GEMV utilization across PIM configs (motivation)", func(ctx context.Context, l *Lab) ([]Table, error) {
		return single(l.Fig2b())
	}},
	{"fig3", "PIM speedup potential over SoC decode (motivation)", func(ctx context.Context, l *Lab) ([]Table, error) {
		return single(l.Fig3())
	}},
	{"fig6", "TTFT increase from weight re-layout (motivation)", func(ctx context.Context, l *Lab) ([]Table, error) {
		return single(l.Fig6())
	}},
	{"tab1", "huge-page load time under memory fragmentation", func(ctx context.Context, l *Lab) ([]Table, error) {
		return single(l.Table1(ctx, DefaultTable1Config()))
	}},
	{"tab2", "evaluated platforms and their PIM configurations", func(ctx context.Context, l *Lab) ([]Table, error) {
		return []Table{Table2()}, nil
	}},
	{"tab3", "GEMM slowdown on the PIM-optimized layout", func(ctx context.Context, l *Lab) ([]Table, error) {
		return single(l.Table3(ctx, soc.LayoutSlowdownConfig{}))
	}},
	{"fig13", "single-query TTFT speedup vs baselines", func(ctx context.Context, l *Lab) ([]Table, error) {
		return single(l.Fig13(ctx))
	}},
	{"fig14", "single-query TTLT speedup per platform", func(ctx context.Context, l *Lab) ([]Table, error) {
		return sweep(ctx, l, "fig14 platforms", soc.All(), func(ctx context.Context, p soc.Platform) (Table, error) {
			return l.Fig14(ctx, p)
		})
	}},
	{"fig15", "dataset TTFT distributions (Alpaca, autocomplete)", func(ctx context.Context, l *Lab) ([]Table, error) {
		return l.datasetPair(ctx, (*Lab).Fig15)
	}},
	{"fig16", "dataset TTLT distributions (Alpaca, autocomplete)", func(ctx context.Context, l *Lab) ([]Table, error) {
		return l.datasetPair(ctx, (*Lab).Fig16)
	}},
	{"maxmap", "largest MapID the mapping family needs", func(ctx context.Context, l *Lab) ([]Table, error) {
		return single(MaxMapID())
	}},
	// The eight ablation studies run as sweep points of their own (each
	// internally fanning out further), reducing in the fixed table order.
	{"ablations", "eight design-choice ablation studies", func(ctx context.Context, l *Lab) ([]Table, error) {
		studies := []func(context.Context) (Table, error){
			func(ctx context.Context) (Table, error) { return l.AblationRelayoutPolicy() },
			l.AblationDynamicThreshold,
			l.AblationSchedulerWindow,
			l.AblationRowPolicy,
			l.AblationConventionalMapping,
			func(ctx context.Context) (Table, error) { return AblationXORHashing() },
			l.AblationGEMMStreams,
			l.AblationMACInterval,
		}
		return sweep(ctx, l, "ablations", studies, func(ctx context.Context, f func(context.Context) (Table, error)) (Table, error) {
			return f(ctx)
		})
	}},
	{"cosched", "SoC/PIM co-scheduled memory-controller interleaving", func(ctx context.Context, l *Lab) ([]Table, error) {
		return single(Cosched())
	}},
	{"quant", "weight-quantization sensitivity", func(ctx context.Context, l *Lab) ([]Table, error) {
		return single(Quant())
	}},
	{"pimstyle", "PIM microarchitecture style comparison", func(ctx context.Context, l *Lab) ([]Table, error) {
		return single(PIMStyle())
	}},
	{"energy", "per-token energy model", func(ctx context.Context, l *Lab) ([]Table, error) {
		return single(l.Energy())
	}},
	{"serving", "closed-form serving queue (legacy extension)", func(ctx context.Context, l *Lab) ([]Table, error) {
		return single(l.Serving(ctx))
	}},
	{"serving2", "event-driven cooperative serving sweep", func(ctx context.Context, l *Lab) ([]Table, error) {
		return single(l.Serving2(ctx, DefaultServing2Config()))
	}},
	{"resilience", "fault-injection and degradation-policy sweep", func(ctx context.Context, l *Lab) ([]Table, error) {
		return single(l.Resilience(ctx, DefaultResilienceConfig()))
	}},
	{"cluster", "fleet-scale heterogeneous serving with routing strategies", func(ctx context.Context, l *Lab) ([]Table, error) {
		return l.Cluster(ctx, DefaultClusterConfig())
	}},
	{"maptune", "auto-tuned PA-to-DA mappings vs the fixed MapID family", func(ctx context.Context, l *Lab) ([]Table, error) {
		return l.MapTune(ctx, DefaultMapTuneConfig())
	}},
}

// lookup finds the registry entry for id.
func lookup(id string) (experiment, bool) {
	i := slices.IndexFunc(experiments, func(e experiment) bool { return e.id == id })
	if i < 0 {
		return experiment{}, false
	}
	return experiments[i], true
}

// datasetPair evaluates a figure over both paper datasets.
func (l *Lab) datasetPair(ctx context.Context, f func(*Lab, context.Context, workload.Spec, DatasetConfig) (Table, error)) ([]Table, error) {
	var out []Table
	for _, spec := range []workload.Spec{workload.AlpacaSpec(), workload.AutocompleteSpec()} {
		t, err := f(l, ctx, spec, DefaultDatasetConfig())
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// AllIDs is the DESIGN.md experiment order for "run everything".
var AllIDs = func() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}()

// Info describes one registered experiment for listings: the identifier
// plus a one-line title. `facilsim -list` and the daemon's
// GET /experiments endpoint both render from Catalog, so the two
// listings cannot drift from the registry (or from each other).
type Info struct {
	// ID is the registry identifier ("fig13", "serving2", ...).
	ID string `json:"id"`
	// Title is the one-line human description.
	Title string `json:"title"`
}

// Catalog returns every registered experiment in DESIGN.md order with
// its one-line title — the single source for CLI and daemon listings.
func Catalog() []Info {
	out := make([]Info, len(experiments))
	for i, e := range experiments {
		out[i] = Info{ID: e.id, Title: e.title}
	}
	return out
}

// Known reports whether id names a registered experiment.
func Known(id string) bool {
	_, ok := lookup(id)
	return ok
}
