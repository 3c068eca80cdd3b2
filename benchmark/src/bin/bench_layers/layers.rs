//! Every call the benchmark makes *below* `uniform::ConcurrentDatabase`
//! lives here, and only the traced binary compiles it: a refactor of an
//! evaluator, the checker or the repair engine can break this file but
//! never the end-to-end gate.
//!
//! Pure layers (`integrity`, `repair`, `analyze`, `satisfiability`,
//! `datalog` evaluation, `logic`) are probed on the snapshot pinned just
//! before the real call — with one client nothing moves in between. The
//! mutating `datalog` layer is probed on a shadow `CommitQueue` and
//! `MaintainedModel` fed the same accepted transactions. Every probe is
//! a span; probes that replicate work the real call does are adopted as
//! its children once the call has returned.

use std::collections::BTreeMap;
use std::rc::Rc;
use ubench::driver::{Built, Clock, Probe, ReadyOp, Record};
use ubench::ops::{Action, Class, Op, Outcome, Plan};
use ubench::report::{Phase, PhasedProbe};
use ubench::spans::{self, Recorder, Span};
use ubench::stats;
use uniform::analyze::{AnalyzeOptions, Analyzer};
use uniform::datalog::{
    answer_goal_magic, satisfies_closed, solve_conjunction, CommitQueue, MaintainedModel, Model,
    RuleSet, Snapshot, Transaction, Update,
};
use uniform::integrity::Checker;
use uniform::logic::{
    normalize, parse_formula, parse_program, parse_query, parse_rule, Constraint, Literal, Subst,
    Sym, Term,
};
use uniform::satisfiability::{SatChecker, SatOptions};
use uniform::{
    ConcurrentDatabase, Database, RepairBackend, RepairEngine, RepairOptions, ViolationPolicy,
};

/// Evaluator probes replay one read burst in this many: they cost as
/// much as the burst itself.
const READ_PROBE_EVERY: usize = 4;
/// Goals answered through the magic-sets rewrite per probed burst.
const MAGIC_GOALS: usize = 4;

/// What the program resolved `UNIFORM_THREADS` (or its absence) to.
pub fn resolved_threads() -> usize {
    uniform::datalog::par::max_threads()
}

/// Whether the databases of `built` read a timer for their own spans.
pub fn obs_clock_enabled(built: &Built) -> bool {
    built.dbs[0].handle.obs().clock_enabled()
}

/// Shadow of database 0's mutating `datalog` layer.
struct Shadow {
    queue: CommitQueue,
    model: MaintainedModel,
    base_rules: RuleSet,
}

impl Shadow {
    fn set_rules(&mut self, rules: RuleSet) {
        self.queue.update_schema(|d| d.set_rules(rules.clone()));
        let facts = self.queue.with_db(|d| d.facts().clone());
        self.model = MaintainedModel::new(facts, rules);
    }
}

/// Counts read off the probes' own reports (`CheckReport.stats`,
/// `SatReport.stats`, `RepairReport`); with one client they repeat
/// exactly from run to run.
#[derive(Default)]
pub struct Counts {
    pub checks: u64,
    pub instances_evaluated: u64,
    pub instances_shared: u64,
    pub memo_hits: u64,
    pub new_materializations: u64,
    pub sat_checks: u64,
    pub sat_steps: u64,
    pub repair_runs: u64,
    pub repairs_found: u64,
}

/// How a probe's span relates to the operation's root span.
#[derive(Clone, Copy, PartialEq)]
enum Link {
    /// Replicates work the real call does: adopted by the root.
    Child,
    /// Part of an earlier probe of this operation.
    Under(u32),
    /// Work the real call does not do on this path; shares only the
    /// `op_index`.
    Side,
}

pub struct LayerProbe<'p> {
    plan: &'p Plan,
    phase: Phase,
    /// Offset making `op_index` unique across phases.
    base: usize,
    next_base: usize,
    pub spans: Recorder,
    /// Items behind multi-item spans (read bursts), by span id.
    items: BTreeMap<u32, u32>,
    /// Spans recorded before the real call, adopted by its root after.
    pending: Vec<u32>,
    pending_tx: Option<Transaction>,
    bursts_seen: usize,
    shadow: Option<Shadow>,
    /// Parsed query literals, per database per query.
    queries: Rc<Vec<Vec<Vec<Literal>>>>,
    pub counts: Counts,
    pub parse_program_us_per_kfact: f64,
    pub model_compute_ms: f64,
}

impl<'p> LayerProbe<'p> {
    pub fn new(plan: &'p Plan) -> LayerProbe<'p> {
        let queries = plan
            .dbs
            .iter()
            .map(|db| {
                db.queries
                    .iter()
                    .map(|q| parse_query(&q.text).expect("generated queries parse"))
                    .collect()
            })
            .collect();
        let queries = Rc::new(queries);
        LayerProbe {
            plan,
            phase: Phase::Warmup,
            base: 0,
            next_base: 0,
            spans: Recorder::default(),
            items: BTreeMap::new(),
            pending: Vec::new(),
            pending_tx: None,
            bursts_seen: 0,
            shadow: None,
            queries,
            counts: Counts::default(),
            parse_program_us_per_kfact: 0.0,
            model_compute_ms: 0.0,
        }
    }

    fn recording(&self) -> bool {
        self.phase != Phase::Warmup
    }

    /// Time `f` as a span of the operation about to run.
    fn probe<T>(
        &mut self,
        clock: &Clock,
        op_index: usize,
        name: &'static str,
        link: Link,
        f: impl FnOnce() -> T,
    ) -> (T, u32) {
        let t0 = clock.now_ns();
        let out = std::hint::black_box(f());
        let parent = match link {
            Link::Under(id) => Some(id),
            _ => None,
        };
        let id = self
            .spans
            .record(parent, op_index, name, t0, clock.now_ns());
        if link == Link::Child {
            self.pending.push(id);
        }
        (out, id)
    }

    fn probe_commit(
        &mut self,
        clock: &Clock,
        i: usize,
        snap: &Snapshot,
        tx: &Transaction,
        op: &Op,
        policy: ViolationPolicy,
    ) {
        let max_changes = self.plan.dbs[op.db as usize].repair_max_changes;
        let dense = op.class == Class::AutoRepairDense;
        let checker = Checker::for_snapshot(snap);
        let (report, check) = self.probe(clock, i, "integrity.check_accept", Link::Child, || {
            checker.check(tx)
        });
        if !report.satisfied {
            self.spans.rename(check, "integrity.check_reject");
        }
        let s = report.stats;
        self.counts.checks += 1;
        self.counts.instances_evaluated += s.instances_evaluated as u64;
        self.counts.instances_shared += s.instances_shared as u64;
        self.counts.memo_hits += s.subquery_memo_hits as u64;
        self.counts.new_materializations += s.new_materializations as u64;
        // The paper's two phases, as children of the whole check.
        let literals: Vec<Literal> = tx.updates.iter().map(Update::to_literal).collect();
        let (compiled, _) = self.probe(clock, i, "integrity.compile", Link::Under(check), || {
            checker.compile(&literals)
        });
        self.probe(clock, i, "integrity.evaluate", Link::Under(check), || {
            checker.evaluate(&compiled, tx)
        });
        if policy != ViolationPolicy::Reject && !report.satisfied {
            // `Auto` runs the search and escalates to SAT only when the
            // search cannot prove coverage: on the dense block. Elsewhere
            // SAT would enumerate the whole active-domain repair space —
            // seconds per call — for a path the real commit never takes.
            let backends = [
                ("repair.repairs_search", RepairBackend::Search),
                ("repair.repairs_sat", RepairBackend::Sat),
            ];
            for (name, backend) in backends.into_iter().take(if dense { 2 } else { 1 }) {
                let engine = RepairEngine::for_update(snap, tx).with_options(RepairOptions {
                    max_changes,
                    backend,
                    ..RepairOptions::default()
                });
                let (result, _) = self.probe(clock, i, name, Link::Child, || engine.repairs());
                if let (Ok(r), RepairBackend::Search) = (&result, backend) {
                    self.counts.repair_runs += 1;
                    self.counts.repairs_found += r.repairs.len() as u64;
                }
            }
        }
    }

    fn probe_reads(
        &mut self,
        clock: &Clock,
        i: usize,
        snap: &Snapshot,
        op: &Op,
        reads: &[(usize, uniform::Params)],
    ) {
        let db = op.db as usize;
        let plan = self.plan;
        let spec = &plan.dbs[db];
        let first = &spec.queries[reads[0].0];
        let _ = self.probe(clock, i, "logic.parse_query", Link::Side, || {
            parse_query(&first.text)
        });
        let bound = |query: usize, params: &uniform::Params| {
            let name = spec.queries[query].param;
            let value = params
                .get(name)
                .expect("generated reads bind their parameter");
            let mut s = Subst::new();
            s.bind(Sym::new(name), Term::Const(value.sym()));
            s
        };
        // What `Latest` does below `core`: enumerate the conjunction over
        // the snapshot's materialised model.
        let all_queries = self.queries.clone();
        let queries = &all_queries[db];
        let model = snap.model();
        let t0 = clock.now_ns();
        let mut rows = 0u64;
        for (query, params) in reads {
            solve_conjunction(
                model,
                &queries[*query],
                &mut bound(*query, params),
                &mut |_| {
                    rows += 1;
                    true
                },
            );
        }
        std::hint::black_box(rows);
        let id = self
            .spans
            .record(None, i, "datalog.eval_join", t0, clock.now_ns());
        self.pending.push(id);
        self.items.insert(id, reads.len() as u32);
        // What a cold `Certain` read of a recursion-reaching goal does per
        // repair candidate. Not a child: no `Latest` read takes this path.
        let graph = snap.rules().graph();
        let magic: Vec<_> = reads
            .iter()
            .filter(|(q, _)| {
                let lits = &queries[*q];
                lits.len() == 1 && graph.is_idb(lits[0].atom.pred)
            })
            .take(MAGIC_GOALS)
            .collect();
        if !magic.is_empty() {
            let t0 = clock.now_ns();
            for (query, params) in &magic {
                let goal = bound(*query, params).apply_atom(&queries[*query][0].atom);
                let _ = std::hint::black_box(answer_goal_magic(snap.facts(), snap.rules(), &goal));
            }
            let id = self
                .spans
                .record(None, i, "datalog.eval_magic", t0, clock.now_ns());
            self.items.insert(id, magic.len() as u32);
        }
    }

    fn probe_constraint(
        &mut self,
        clock: &Clock,
        i: usize,
        snap: &Snapshot,
        name: &str,
        formula: &str,
    ) {
        let (rq, _) = self.probe(clock, i, "logic.parse_formula", Link::Child, || {
            let f = parse_formula(formula).expect("generated formulas parse");
            normalize(&f).expect("generated formulas normalize")
        });
        let mut candidate = snap.constraints().to_vec();
        candidate.push(Constraint::new(name, rq.clone()));
        let rules = snap.rules().clone();
        // The gate as `try_add_constraint` runs it: lints + closures,
        // then one bounded satisfiability search over the candidate set.
        let (analyzed, _) = self.probe(clock, i, "analyze.analyze", Link::Child, || {
            Analyzer::new(rules.clone(), candidate.clone())
                .with_options(AnalyzeOptions::gate(SatOptions::default()))
                .analyze()
        });
        let (_, classify) = self.probe(clock, i, "analyze.classify", Link::Child, || {
            analyzed.set_class()
        });
        let (report, _) = self.probe(
            clock,
            i,
            "satisfiability.check",
            Link::Under(classify),
            || {
                SatChecker::new(rules.clone(), candidate.clone())
                    .with_options(SatOptions::default())
                    .check()
            },
        );
        self.counts.sat_checks += 1;
        self.counts.sat_steps += report.stats.enforcement_steps as u64;
        self.probe(clock, i, "datalog.eval_constraint", Link::Child, || {
            satisfies_closed(snap.model(), &rq)
        });
    }
}

impl PhasedProbe for LayerProbe<'_> {
    fn enter(&mut self, phase: Phase, _built: &Built, clock: &Clock) {
        self.phase = phase;
        self.base = self.next_base;
        self.next_base += match phase {
            Phase::Warmup => self.plan.warmup.len(),
            Phase::Measured => self.plan.ops.len(),
        };
        if phase != Phase::Warmup {
            return;
        }
        // Set-up's two big steps, on database 0, from outside.
        // The parse three times, for a median: a single shot once caught
        // a 1.3 s stall of the box.
        let program = &self.plan.dbs[0].program;
        let parses: Vec<f64> = (0..3)
            .map(|_| {
                let t0 = clock.now_ns();
                let source = parse_program(program).expect("generated program parses");
                let parse_us = (clock.now_ns() - t0) as f64 / 1e3;
                parse_us / (source.facts.len().max(1) as f64 / 1e3)
            })
            .collect();
        self.parse_program_us_per_kfact = stats::median(&parses).unwrap_or(0.0);
        let db = Database::parse(program).expect("generated program parses");
        let t0 = clock.now_ns();
        let model = Model::compute(db.facts(), db.rules());
        self.model_compute_ms = (clock.now_ns() - t0) as f64 / 1e6;
        self.shadow = Some(Shadow {
            model: MaintainedModel::with_model(
                db.facts().clone(),
                db.rules().clone(),
                model.facts().clone(),
            ),
            base_rules: db.rules().clone(),
            queue: CommitQueue::new(db),
        });
    }
}

impl Probe for LayerProbe<'_> {
    fn before(
        &mut self,
        index: usize,
        op: &Op,
        ready: &ReadyOp,
        db: &ConcurrentDatabase,
        clock: &Clock,
    ) {
        self.pending.clear();
        self.pending_tx = None;
        let i = self.base + index;
        let commit_tx = |inserts: &[uniform::Fact], deletes: &[uniform::Fact]| {
            Transaction::new(
                inserts
                    .iter()
                    .cloned()
                    .map(Update::insert)
                    .chain(deletes.iter().cloned().map(Update::delete))
                    .collect(),
            )
        };
        if !self.recording() {
            if let ReadyOp::Commit {
                inserts, deletes, ..
            } = ready
            {
                self.pending_tx = Some(commit_tx(inserts, deletes));
            }
            return;
        }
        let t0 = clock.now_ns();
        let snap = db.snapshot();
        self.spans
            .record(None, i, "datalog.snapshot", t0, clock.now_ns());
        match (ready, &op.action) {
            (
                ReadyOp::Commit {
                    inserts,
                    deletes,
                    policy,
                },
                _,
            ) => {
                let tx = commit_tx(inserts, deletes);
                self.probe_commit(clock, i, &snap, &tx, op, *policy);
                self.pending_tx = Some(tx);
            }
            (ReadyOp::Reads { reads, .. }, _) => {
                self.bursts_seen += 1;
                if self.bursts_seen.is_multiple_of(READ_PROBE_EVERY) {
                    self.probe_reads(clock, i, &snap, op, reads);
                }
            }
            (ReadyOp::AddConstraint, Action::AddConstraint { name, formula }) => {
                self.probe_constraint(clock, i, &snap, name, formula);
            }
            _ => {}
        }
    }

    fn after(&mut self, index: usize, op: &Op, _ready: &ReadyOp, record: &Record, clock: &Clock) {
        let i = self.base + index;
        let root = self.recording().then(|| {
            let root = self
                .spans
                .record(None, i, op.class.name(), record.start_ns, record.end_ns);
            self.items.insert(root, op.items());
            for child in std::mem::take(&mut self.pending) {
                self.spans.adopt(child, root);
            }
            root
        });
        // Mirror database 0's accepted writes into the shadow.
        let Some(shadow) = self.shadow.as_mut().filter(|_| op.db == 0) else {
            return;
        };
        match (&op.action, &record.outcome) {
            (Action::Commit { .. }, Outcome::Accepted) => {
                let tx = self.pending_tx.take().expect("staged in `before`");
                let mut txn = shadow.queue.begin();
                for u in &tx.updates {
                    txn.stage(u.clone());
                }
                let t0 = clock.now_ns();
                let receipt = shadow.queue.commit(&txn);
                let t1 = clock.now_ns();
                shadow.model.apply_transaction(&tx);
                let t2 = clock.now_ns();
                assert!(
                    receipt.is_ok(),
                    "one client: the shadow queue never conflicts"
                );
                if let Some(root) = root {
                    let q = self
                        .spans
                        .record(Some(root), i, "datalog.queue_commit", t0, t1);
                    // The queue maintains its own model inside `commit`;
                    // the standalone apply shows how much of it that is.
                    self.spans
                        .record(Some(q), i, "datalog.maintain_apply", t1, t2);
                }
            }
            (Action::AddRule { rule }, Outcome::SchemaAdded) => {
                let mut rules = shadow.base_rules.rules().to_vec();
                rules.push(parse_rule(rule).expect("generated rules parse"));
                shadow.set_rules(RuleSet::new(rules).expect("accepted rules stratify"));
            }
            (Action::ResetSchema { rules: true }, _) => {
                let base = shadow.base_rules.clone();
                shadow.set_rules(base);
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// From spans to numbers
// ---------------------------------------------------------------------------

pub struct SpanStats<'a> {
    spans: &'a [Span],
    own: Vec<u64>,
    items: &'a BTreeMap<u32, u32>,
    children: BTreeMap<u32, Vec<u32>>,
}

impl LayerProbe<'_> {
    pub fn stats(&self) -> SpanStats<'_> {
        let spans = self.spans.spans();
        let mut children: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for s in spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push(s.id);
            }
        }
        SpanStats {
            spans,
            own: spans::self_times(spans),
            items: &self.items,
            children,
        }
    }
}

impl SpanStats<'_> {
    fn named<'s>(&'s self, name: &'s str) -> impl Iterator<Item = &'s Span> + 's {
        self.spans.iter().filter(move |s| s.name == name)
    }

    fn per_item_ns(&self, s: &Span) -> f64 {
        s.duration_ns() as f64 / self.items.get(&s.id).copied().unwrap_or(1).max(1) as f64
    }

    /// Median per-item duration of the spans called `name`, in ns.
    pub fn p50_ns(&self, name: &str) -> f64 {
        let v: Vec<f64> = self.named(name).map(|s| self.per_item_ns(s)).collect();
        stats::median(&v).unwrap_or(0.0)
    }

    pub fn p50_us(&self, name: &str) -> f64 {
        self.p50_ns(name) / 1e3
    }

    /// Roots of `class` that were probed (have at least one child).
    fn probed_roots<'s>(&'s self, class: Class) -> impl Iterator<Item = &'s Span> + 's {
        self.named(class.name())
            .filter(|s| s.parent.is_none() && self.children.contains_key(&s.id))
    }

    /// Median self time per item of the probed roots of `class`, in µs:
    /// what the call spent that no lower-layer probe accounts for.
    pub fn self_p50_us(&self, class: Option<Class>) -> f64 {
        let Some(class) = class else {
            return 0.0;
        };
        let v: Vec<f64> = self
            .probed_roots(class)
            .map(|s| {
                self.own[s.id as usize] as f64
                    / self.items.get(&s.id).copied().unwrap_or(1) as f64
                    / 1e3
            })
            .collect();
        stats::median(&v).unwrap_or(0.0)
    }

    /// Share of the probed `class` roots' time that their children named
    /// by `layer` (a span-name prefix) account for.
    pub fn share(&self, class: Option<Class>, layer: &str) -> f64 {
        let Some(class) = class else {
            return 0.0;
        };
        let (mut total, mut part) = (0u64, 0u64);
        for root in self.probed_roots(class) {
            total += root.duration_ns();
            let covered: u64 = self.children[&root.id]
                .iter()
                .map(|&c| &self.spans[c as usize])
                .filter(|c| c.name.starts_with(layer))
                .map(Span::duration_ns)
                .sum();
            part += covered.min(root.duration_ns());
        }
        if total == 0 {
            0.0
        } else {
            part as f64 / total as f64
        }
    }

    /// Share of all probed roots' time that is nobody's child.
    pub fn unattributed_frac(&self) -> f64 {
        let (mut total, mut own) = (0u64, 0u64);
        for s in self.spans {
            if s.parent.is_none() && self.children.contains_key(&s.id) {
                total += s.duration_ns();
                own += self.own[s.id as usize];
            }
        }
        if total == 0 {
            0.0
        } else {
            own as f64 / total as f64
        }
    }
}
