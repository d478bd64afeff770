//! Generic Monte-Carlo campaigns over [`Scenario`]s.
//!
//! A [`Campaign`] owns everything the per-figure experiment functions
//! used to hand-roll: seeding, worker parallelism, progress reporting,
//! per-metric summary statistics (mean / CI95 / completion rate) and
//! structured output (table, CSV, JSON). A campaign is a set of labelled
//! *points* (parameter values of a sweep — a BER, a sniff interval, …),
//! each sampled with `runs` independent seeds; all `points × runs` jobs
//! are flattened into one [`btsim_stats::run_campaign`] batch, so every
//! point of a sweep runs in parallel and the result is bit-reproducible
//! for a fixed base seed regardless of the thread count.
//!
//! Jobs are flattened `point × runs` in point order, and a sweep's cost
//! is seldom even across its points (a BER sweep's high-BER runs take
//! up to ~80× longer than its clean ones). The workers therefore claim
//! jobs one at a time rather than taking fixed shares, so none idles
//! while another still holds the expensive tail.

use std::sync::atomic::{AtomicUsize, Ordering};

use btsim_stats::{run_campaign, JsonValue, Record, Summary, Table};

use crate::scenario::Scenario;
use crate::{Engine, Fidelity, SimConfig, SimSnapshot};

/// Campaign sizing options shared by every experiment.
#[derive(Debug, Clone)]
pub struct ExpOptions {
    /// Monte-Carlo runs per parameter point.
    pub runs: usize,
    /// Worker threads (0 = auto).
    pub threads: usize,
    /// Base seed; run `i` of a point uses `base_seed + i`.
    pub base_seed: u64,
    /// Override for the scatternet experiments' piconet count: collapse
    /// their piconet-count sweep to this single point (`--piconets`).
    pub piconets: Option<usize>,
    /// Override for the scatternet bridge experiment's duty-cycle
    /// sweep: run this single duty point (`--bridge-duty`, in (0, 1)).
    pub bridge_duty: Option<f64>,
    /// Simulation engine every scenario in the campaign runs on
    /// (`--engine`). Results are engine-independent by construction —
    /// the differential harness enforces it — so this only changes how
    /// fast the campaign finishes.
    pub engine: Engine,
    /// PHY fidelity tier every scenario runs at (`--fidelity`). Unlike
    /// `engine`, the statistical tier *does* change sampled outcomes —
    /// packet fates come from closed-form draws instead of the bit-level
    /// codecs — but `tests/fidelity_equivalence.rs` pins the metric
    /// distributions to the bit tier within tolerance.
    pub fidelity: Fidelity,
    /// Record a btsnoop packet capture (`--capture`). Experiments that
    /// honour it run one extra *representative* simulation at the base
    /// seed with [`SimConfig::capture`] on and attach the serialized
    /// file as a binary artifact; the Monte-Carlo campaign itself runs
    /// capture-off, so sampled results are unchanged.
    pub capture: bool,
    /// Stream a metrics-hub snapshot every this many slots during the
    /// representative run (`--metrics-every N`), attached as a JSON-lines
    /// artifact. Like `capture`, never applied to campaign runs.
    pub metrics_every: Option<u64>,
    /// Override for the spatial grid's cell size in metres
    /// (`--cell-size`). On scenarios that already use the spatial
    /// medium this resizes the cells (keeping the interaction radius);
    /// on non-spatial scenarios it *enables* the spatial model with
    /// interaction radius = cell size. Results are position-dependent,
    /// so this changes outcomes only by culling out-of-range
    /// interference; see `docs/SPATIAL.md`.
    pub cell_size: Option<f64>,
    /// Worker-shard cap for each simulated run (`--shards`). Sharding
    /// is bit-identical to `--shards 1` for a fixed shard layout — the
    /// differential tests enforce it — so like `engine` this only
    /// changes how fast a spatial run finishes.
    pub shards: Option<usize>,
    /// Save a post-formation snapshot of the experiment's base-seed
    /// simulator to this path (`--snapshot PATH`). Experiments with a
    /// formation phase form once at `base_seed`, write the snapshot's
    /// wire form ([`crate::SimSnapshot::to_bytes`]) and then run the
    /// campaign exactly as without the flag — outputs are unchanged.
    /// Experiments without a formation phase ignore it.
    pub snapshot: Option<String>,
    /// Resume the experiment's base-seed run from a snapshot file
    /// previously saved with `--snapshot` (`--resume PATH`). The file is
    /// loaded and validated ([`crate::SimSnapshot::from_bytes`]); a
    /// malformed or version-mismatched file is reported as a clear error,
    /// never a panic. Restoring a base-seed snapshot and driving the
    /// measurement suffix is bit-identical to the straight-through run,
    /// so outputs are byte-identical to a run without the flag.
    pub resume: Option<String>,
    /// Fault plan stamped onto every scenario's simulator configuration
    /// (`--faults SPEC`, see [`crate::fault`] for the grammar). The
    /// fault experiments install their own default calendar only when
    /// no plan was supplied, so this overrides them; on other
    /// experiments it injects the faults on top of the workload.
    pub faults: Option<crate::FaultPlan>,
}

impl Default for ExpOptions {
    fn default() -> Self {
        Self {
            runs: 200,
            threads: 0,
            base_seed: 0x00B1_005E,
            piconets: None,
            bridge_duty: None,
            engine: Engine::default(),
            fidelity: Fidelity::default(),
            capture: false,
            metrics_every: None,
            cell_size: None,
            shards: None,
            snapshot: None,
            resume: None,
            faults: None,
        }
    }
}

impl ExpOptions {
    /// A reduced campaign for smoke tests and quick previews.
    pub fn quick() -> Self {
        Self {
            runs: 12,
            ..Self::default()
        }
    }

    /// Stamps the selected engine and fidelity tier onto a scenario's
    /// simulator configuration — the hook every experiment routes its
    /// `SimConfig` through so `--engine` and `--fidelity` reach all of
    /// them. Deliberately does *not* stamp `capture`/`metrics_every`:
    /// those belong to the one representative run
    /// ([`ExpOptions::observed_sim`]), never to campaign runs.
    ///
    /// # Panics
    ///
    /// Panics if `--cell-size` is below the interaction radius of a
    /// spatial `base`; runners reject that first with
    /// [`ExpOptions::spatial_for`].
    pub fn sim(&self, mut base: SimConfig) -> SimConfig {
        base.engine = self.engine;
        base.fidelity = self.fidelity;
        base.channel.spatial = self.spatial_for(&base).unwrap_or_else(|e| panic!("{e}"));
        if let Some(shards) = self.shards {
            base.shards = shards;
        }
        if let Some(plan) = &self.faults {
            base.faults = plan.clone();
        }
        base
    }

    /// The spatial model [`ExpOptions::sim`] gives `base`: `base`'s own
    /// without `--cell-size`; with it, `base`'s interaction radius on
    /// cells of that size, or a radius of one cell when `base` has no
    /// spatial model. Errs when the cell size is below `base`'s radius.
    pub fn spatial_for(
        &self,
        base: &SimConfig,
    ) -> Result<Option<btsim_channel::SpatialConfig>, btsim_channel::CellSizeError> {
        let Some(cell) = self.cell_size else {
            return Ok(base.channel.spatial);
        };
        match base.channel.spatial {
            Some(sp) => btsim_channel::SpatialConfig::try_new(sp.path_loss(), cell).map(Some),
            None => Ok(Some(btsim_channel::SpatialConfig::with_radius(cell))),
        }
    }

    /// [`ExpOptions::sim`] plus the observability toggles — for the
    /// single representative run an experiment performs when
    /// `--capture` or `--metrics-every` is set.
    pub fn observed_sim(&self, base: SimConfig) -> SimConfig {
        let mut cfg = self.sim(base);
        cfg.capture = self.capture;
        cfg.metrics_every = self.metrics_every;
        cfg
    }
}

/// A Monte-Carlo campaign over one scenario, or a labelled sweep over
/// several configurations of the same scenario type.
///
/// # Examples
///
/// ```
/// use btsim_core::campaign::Campaign;
/// use btsim_core::scenario::{PageConfig, PageScenario};
///
/// let result = Campaign::new(PageScenario::new(PageConfig::default()))
///     .runs(4)
///     .base_seed(7)
///     .run();
/// assert_eq!(result.single().outcomes.len(), 4);
/// assert!(result.single().completion_rate() > 0.9);
/// ```
#[derive(Debug, Clone)]
pub struct Campaign<S: Scenario> {
    points: Vec<(String, S)>,
    opts: ExpOptions,
    progress: bool,
    fork_formation: bool,
}

impl<S: Scenario + Sync> Campaign<S> {
    /// A single-point campaign over `scenario`, labelled with its
    /// [`Scenario::name`].
    pub fn new(scenario: S) -> Self {
        Self {
            points: vec![(scenario.name().to_string(), scenario)],
            opts: ExpOptions::default(),
            progress: false,
            fork_formation: false,
        }
    }

    /// A labelled sweep: one campaign point per `(label, scenario)`.
    pub fn sweep<I>(points: I) -> Self
    where
        I: IntoIterator<Item = (String, S)>,
    {
        Self {
            points: points.into_iter().collect(),
            opts: ExpOptions::default(),
            progress: false,
            fork_formation: false,
        }
    }

    /// Applies shared sizing options.
    pub fn options(mut self, opts: &ExpOptions) -> Self {
        self.opts = opts.clone();
        self
    }

    /// Sets the Monte-Carlo runs per point.
    pub fn runs(mut self, runs: usize) -> Self {
        self.opts.runs = runs;
        self
    }

    /// Sets the worker thread count (0 = auto).
    pub fn threads(mut self, threads: usize) -> Self {
        self.opts.threads = threads;
        self
    }

    /// Sets the base seed.
    pub fn base_seed(mut self, base_seed: u64) -> Self {
        self.opts.base_seed = base_seed;
        self
    }

    /// Prints coarse progress to stderr while the campaign runs.
    pub fn progress(mut self, on: bool) -> Self {
        self.progress = on;
        self
    }

    /// Forks every run of a point from one formed snapshot instead of
    /// re-forming per run.
    ///
    /// When enabled, each point calls [`Scenario::form`] **once** at the
    /// campaign's base seed, snapshots the formed simulator
    /// ([`Simulator::snapshot`](crate::Simulator::snapshot)), and run `i`
    /// restores the snapshot, reseeds its RNG streams with
    /// [`Simulator::reseed_for_fork`](crate::Simulator::reseed_for_fork)`(base_seed + i)`
    /// and drives only the measurement suffix
    /// ([`Scenario::drive_formed`]). Points whose scenario has no
    /// separable formation phase (`form` returns `None`, the default)
    /// fall back to plain per-run [`Scenario::run`].
    ///
    /// Forked runs share the *formed topology* of the base seed and vary
    /// only the post-formation randomness, so they are a different —
    /// statistically equivalent, but not bit-identical — sampling scheme
    /// from the default re-form-per-run campaign. Off by default; see
    /// `docs/SNAPSHOT.md` for the fork semantics and the amortization
    /// benchmark.
    pub fn fork_formation(mut self, on: bool) -> Self {
        self.fork_formation = on;
        self
    }

    /// Runs all `points × runs` jobs and collects the outcomes.
    ///
    /// Run `i` of every point uses seed `base_seed + i`, so a point's
    /// samples are unaffected by how many other points the sweep has,
    /// and the whole result is deterministic for a fixed base seed
    /// regardless of `threads`.
    pub fn run(&self) -> CampaignResult<S::Outcome> {
        let runs = self.opts.runs.max(1);
        let total = self.points.len() * runs;
        let done = AtomicUsize::new(0);
        let step = (total / 10).max(1);
        // Formation amortization: with `fork_formation` on, form each
        // point once at the base seed and snapshot the result; the jobs
        // below then fork from the snapshot instead of re-forming.
        let formed: Vec<Option<SimSnapshot>> = if self.fork_formation {
            self.points
                .iter()
                .map(|(_, s)| s.form(self.opts.base_seed).map(|sim| sim.snapshot()))
                .collect()
        } else {
            vec![None; self.points.len()]
        };
        let outcomes = run_campaign(total, self.opts.threads, 0, |job| {
            let point = (job as usize) / runs;
            let i = (job as usize) % runs;
            let seed = self.opts.base_seed.wrapping_add(i as u64);
            let out = match &formed[point] {
                Some(snap) => {
                    let mut sim = snap.restore();
                    sim.reseed_for_fork(seed);
                    self.points[point].1.drive_formed(&mut sim)
                }
                None => self.points[point].1.run(seed),
            };
            if self.progress {
                let n = done.fetch_add(1, Ordering::Relaxed) + 1;
                if n.is_multiple_of(step) || n == total {
                    eprintln!("campaign: {n}/{total} runs done");
                }
            }
            out
        });
        let mut points = Vec::with_capacity(self.points.len());
        let mut rest = outcomes;
        for (label, _) in &self.points {
            let tail = rest.split_off(runs);
            points.push(PointResult {
                label: label.clone(),
                outcomes: rest,
            });
            rest = tail;
        }
        CampaignResult {
            base_seed: self.opts.base_seed,
            points,
        }
    }
}

/// The outcomes of one campaign point.
#[derive(Debug, Clone, PartialEq)]
pub struct PointResult<R> {
    /// The point's sweep label (the scenario name for single-point
    /// campaigns).
    pub label: String,
    /// Per-run outcomes, in seed order.
    pub outcomes: Vec<R>,
}

impl<R: Record> PointResult<R> {
    /// Fraction of runs that completed.
    pub fn completion_rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes.iter().filter(|o| o.completed()).count() as f64 / self.outcomes.len() as f64
    }

    /// Summary of metric `name` over **completed** runs (the paper's
    /// convention: timed-out runs don't contribute to means).
    pub fn metric(&self, name: &str) -> Summary {
        self.outcomes
            .iter()
            .filter(|o| o.completed())
            .flat_map(|o| o.metrics())
            .filter(|(n, _)| *n == name)
            .map(|(_, v)| v)
            .collect()
    }

    /// Summary of metric `name` over **all** runs.
    pub fn metric_all(&self, name: &str) -> Summary {
        self.outcomes
            .iter()
            .flat_map(|o| o.metrics())
            .filter(|(n, _)| *n == name)
            .map(|(_, v)| v)
            .collect()
    }

    /// The first outcome (convenient for single-run points).
    ///
    /// # Panics
    ///
    /// Panics if the point has no outcomes.
    pub fn first(&self) -> &R {
        &self.outcomes[0]
    }
}

/// All outcomes of a [`Campaign::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult<R> {
    /// The base seed the campaign ran with.
    pub base_seed: u64,
    /// One entry per point, in sweep order.
    pub points: Vec<PointResult<R>>,
}

impl<R: Record> CampaignResult<R> {
    /// The sole point of a single-point campaign.
    ///
    /// # Panics
    ///
    /// Panics if the campaign swept more than one point.
    pub fn single(&self) -> &PointResult<R> {
        assert_eq!(self.points.len(), 1, "campaign swept multiple points");
        &self.points[0]
    }

    /// Finds a point by label.
    pub fn point(&self, label: &str) -> Option<&PointResult<R>> {
        self.points.iter().find(|p| p.label == label)
    }

    /// Summary table of `metric` across the sweep: one row per point
    /// with mean, CI95 and completion rate.
    pub fn metric_table(&self, point_header: &str, metric: &str) -> Table {
        let mut t = Table::with_headers(vec![
            point_header.to_string(),
            format!("mean {metric}"),
            "ci95".to_string(),
            "completed".to_string(),
        ]);
        for p in &self.points {
            let s = p.metric(metric);
            t.row([
                p.label.clone(),
                format!("{:.1}", s.mean()),
                format!("{:.1}", s.ci95()),
                format!("{:.1}%", p.completion_rate() * 100.0),
            ]);
        }
        t
    }

    /// Per-run rows of every point as a table (label + record cells).
    pub fn rows_table(&self) -> Table {
        let mut headers = vec!["point".to_string(), "seed".to_string()];
        if let Some(first) = self.points.first().and_then(|p| p.outcomes.first()) {
            headers.extend(first.columns());
            headers.push("completed".to_string());
        }
        let mut t = Table::with_headers(headers);
        for p in &self.points {
            for (i, o) in p.outcomes.iter().enumerate() {
                let mut cells = vec![
                    p.label.clone(),
                    format!("{}", self.base_seed.wrapping_add(i as u64)),
                ];
                cells.extend(o.cells());
                cells.push(o.completed().to_string());
                t.row(cells);
            }
        }
        t
    }

    /// The whole result as JSON: per point, the aggregate statistics and
    /// the raw per-run records.
    pub fn to_json(&self) -> JsonValue {
        let points = self
            .points
            .iter()
            .map(|p| {
                let mut fields = vec![
                    ("label".to_string(), JsonValue::from(p.label.clone())),
                    (
                        "completion_rate".to_string(),
                        JsonValue::from(p.completion_rate()),
                    ),
                ];
                let mut stats = Vec::new();
                if let Some(first) = p.outcomes.first() {
                    for (name, _) in first.metrics() {
                        let s = p.metric(name);
                        stats.push((
                            name.to_string(),
                            JsonValue::Obj(vec![
                                ("mean".to_string(), JsonValue::from(s.mean())),
                                ("ci95".to_string(), JsonValue::from(s.ci95())),
                                ("min".to_string(), JsonValue::from(s.min())),
                                ("max".to_string(), JsonValue::from(s.max())),
                            ]),
                        ));
                    }
                }
                fields.push(("metrics".to_string(), JsonValue::Obj(stats)));
                fields.push((
                    "runs".to_string(),
                    JsonValue::Arr(p.outcomes.iter().map(|o| o.to_json()).collect()),
                ));
                JsonValue::Obj(fields)
            })
            .collect();
        JsonValue::Obj(vec![
            ("base_seed".to_string(), JsonValue::from(self.base_seed)),
            ("points".to_string(), JsonValue::Arr(points)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{PageConfig, PageScenario};

    #[test]
    fn sweep_points_share_seeds() {
        let sweep = Campaign::sweep([
            ("a".to_string(), PageScenario::new(PageConfig::default())),
            ("b".to_string(), PageScenario::new(PageConfig::default())),
        ])
        .runs(3)
        .base_seed(11)
        .run();
        // Identical configs + identical seeds = identical outcomes.
        assert_eq!(sweep.points[0].outcomes, sweep.points[1].outcomes);
        assert_eq!(sweep.point("b").unwrap().outcomes.len(), 3);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let run = |threads| {
            Campaign::new(PageScenario::new(PageConfig::default()))
                .runs(6)
                .threads(threads)
                .base_seed(3)
                .run()
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn fork_formation_falls_back_without_formation_phase() {
        // `PageScenario` has no `form` phase, so a forked campaign must
        // be bit-identical to the plain per-run path.
        let base = Campaign::new(PageScenario::new(PageConfig::default()))
            .runs(3)
            .base_seed(5);
        assert_eq!(base.clone().run(), base.fork_formation(true).run());
    }

    #[test]
    fn forked_campaign_matches_manual_forks_and_is_thread_stable() {
        use crate::net::{MultiPiconetConfig, MultiPiconetScenario};
        let cfg = MultiPiconetConfig {
            measure_slots: 2_000,
            ..MultiPiconetConfig::default()
        };
        let campaign = |threads| {
            Campaign::new(MultiPiconetScenario::new(cfg.clone()))
                .runs(3)
                .threads(threads)
                .base_seed(21)
                .fork_formation(true)
                .run()
        };
        let forked = campaign(1);
        assert_eq!(forked, campaign(4), "fork path must be thread-stable");
        // Each forked run is exactly restore + reseed + drive_formed.
        let scenario = MultiPiconetScenario::new(cfg.clone());
        let snap = scenario.form(21).expect("formation succeeds").snapshot();
        let manual: Vec<_> = (0..3)
            .map(|i| {
                let mut sim = snap.restore();
                sim.reseed_for_fork(21 + i);
                scenario.drive_formed(&mut sim)
            })
            .collect();
        assert_eq!(forked.single().outcomes, manual);
        assert!(forked.single().outcomes.iter().all(|o| o.connected));
    }

    #[test]
    fn tables_and_json_render() {
        let r = Campaign::new(PageScenario::new(PageConfig::default()))
            .runs(2)
            .run();
        let t = r.metric_table("point", "slots");
        assert_eq!(t.len(), 1);
        assert_eq!(r.rows_table().len(), 2);
        let json = r.to_json().render();
        assert!(json.contains("\"completion_rate\""));
        assert!(json.contains("\"slots\""));
    }
}
