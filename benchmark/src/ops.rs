//! The vocabulary shared by the generators, the driver and the reports:
//! operations, the outcome each must produce, and the op classes whose
//! latencies are kept apart.

use crate::digest::Digest;
use std::fmt::Write as _;

/// One homogeneous kind of operation. A latency metric is the median of
/// exactly one class; classes never pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Class {
    /// New student + enrolment + attendance, one transaction (accepted).
    Insert3,
    /// Retires an earlier `Insert3` (accepted).
    Delete3,
    /// cs-enrolled student without `ddb`: the paper's own rejection.
    RejectCs,
    /// One fact into the closure-free `note/2` (certain cache carries
    /// its entries forward).
    CommitNote,
    /// An `Insert3`-shaped commit issued for its side effect on the
    /// certain cache (it lands inside every constraint closure).
    CommitEnrol,
    /// New employee + unit + edge under an existing node (accepted).
    InsertLeaf,
    /// Retires an inserted childless employee (accepted).
    DeleteLeaf,
    /// An edge closing a cycle in the org forest (rejected).
    RejectCycle,
    /// `above(E, Y)` at `Latest`, bursts of 64.
    ReadAbove,
    /// Prepared reads at `Latest`, bursts of 64.
    ReadLatest,
    /// Prepared reads at `Certain` with the state's repairs cached.
    ReadCertain,
    /// The first `Certain` burst after the repairs were invalidated.
    CertainCold,
    /// `try_add_constraint`, accepted through analyzer + gate.
    SchemaAdd,
    /// `try_add_constraint` refused as statically unsatisfiable.
    SchemaRefuseUnsat,
    /// `try_add_constraint` refused as currently violated.
    SchemaRefuseViolated,
    /// `try_add_rule`, accepted.
    AddRule,
    /// `update_schema` back to the base schema.
    SchemaReset,
    /// Violating transaction landed by `AutoRepair`; fixed shape.
    AutoRepair,
    /// The same with 3–4 live violations instead of 2.
    AutoRepairWide,
    /// The same on a dense n = 16 block only the SAT backend answers.
    AutoRepairDense,
    /// Violating transaction refused under `Explain`.
    Explain,
    /// Raw loader writes that (re)build a violation-bearing state.
    Raw,
}

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Insert3 => "insert3",
            Class::Delete3 => "delete3",
            Class::RejectCs => "reject_cs",
            Class::CommitNote => "commit_note",
            Class::CommitEnrol => "commit_enrol",
            Class::InsertLeaf => "insert_leaf",
            Class::DeleteLeaf => "delete_leaf",
            Class::RejectCycle => "reject_cycle",
            Class::ReadAbove => "read_above",
            Class::ReadLatest => "read_latest",
            Class::ReadCertain => "read_certain",
            Class::CertainCold => "certain_cold",
            Class::SchemaAdd => "schema_add",
            Class::SchemaRefuseUnsat => "schema_refuse_unsat",
            Class::SchemaRefuseViolated => "schema_refuse_violated",
            Class::AddRule => "add_rule",
            Class::SchemaReset => "schema_reset",
            Class::AutoRepair => "auto_repair",
            Class::AutoRepairWide => "auto_repair_wide",
            Class::AutoRepairDense => "auto_repair_dense",
            Class::Explain => "explain",
            Class::Raw => "raw",
        }
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FactSpec {
    pub pred: &'static str,
    pub args: Vec<String>,
}

pub fn fact(pred: &'static str, args: &[&str]) -> FactSpec {
    FactSpec {
        pred,
        args: args.iter().map(|a| a.to_string()).collect(),
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    Reject,
    Explain,
    AutoRepair,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Level {
    Latest,
    Certain,
}

/// One prepared read: the database's `query`-th text with its single
/// parameter bound to `param`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Read {
    pub query: u16,
    pub param: String,
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Action {
    Commit {
        inserts: Vec<FactSpec>,
        deletes: Vec<FactSpec>,
        policy: Policy,
    },
    /// A burst: all reads are timed together and reported per read.
    Reads {
        level: Level,
        reads: Vec<Read>,
    },
    AddConstraint {
        name: String,
        formula: String,
    },
    AddRule {
        rule: String,
    },
    /// Restore the base constraints (and rules, when `rules`).
    ResetSchema {
        rules: bool,
    },
    /// Unguarded loader write through `update_schema`.
    RawApply {
        inserts: Vec<FactSpec>,
        deletes: Vec<FactSpec>,
    },
    /// Unguarded restore of the database's base facts.
    RawRestore,
}

/// What an operation did, reduced to what the generator can predict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Commit admitted without a repair.
    Accepted,
    /// Commit admitted with a repair delta of `ops` operations.
    Repaired { ops: usize },
    /// `TxnError::Rejected`.
    Rejected,
    /// `TxnError::RejectedWithRepair`.
    Explained,
    /// Schema change installed.
    SchemaAdded,
    /// Refused: analyzer proved the candidate set unsatisfiable (UA0301).
    RefusedUnsat,
    /// Refused: satisfiable but violated by the current state.
    RefusedViolated,
    /// Total rows over a burst.
    Rows(u64),
    /// Harness op completed.
    Done,
    /// Anything else, rendered; never expected.
    Other(String),
}

/// The generator's expectation. `Rows(None)` accepts any row count (the
/// outcome digest still pins it across runs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expect {
    Accepted,
    Repaired,
    Rejected,
    Explained,
    SchemaAdded,
    RefusedUnsat,
    RefusedViolated,
    Rows(Option<u64>),
    Done,
}

impl Expect {
    pub fn met_by(&self, outcome: &Outcome) -> bool {
        match (self, outcome) {
            (Expect::Accepted, Outcome::Accepted)
            | (Expect::Repaired, Outcome::Repaired { .. })
            | (Expect::Rejected, Outcome::Rejected)
            | (Expect::Explained, Outcome::Explained)
            | (Expect::SchemaAdded, Outcome::SchemaAdded)
            | (Expect::RefusedUnsat, Outcome::RefusedUnsat)
            | (Expect::RefusedViolated, Outcome::RefusedViolated)
            | (Expect::Done, Outcome::Done)
            | (Expect::Rows(None), Outcome::Rows(_)) => true,
            (Expect::Rows(Some(want)), Outcome::Rows(got)) => want == got,
            _ => false,
        }
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Op {
    /// Index into the plan's databases.
    pub db: u8,
    pub class: Class,
    pub action: Action,
    pub expect: Expect,
}

impl Op {
    /// How many operations a caller would count: a burst is its reads.
    pub fn items(&self) -> u32 {
        match &self.action {
            Action::Reads { reads, .. } => reads.len() as u32,
            _ => 1,
        }
    }
}

/// One prepared, single-parameter query text of a database.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuerySpec {
    pub text: String,
    pub param: &'static str,
}

/// One database of a plan: its program text, the queries prepared
/// against it at set-up, and the repair budget its handle is opened with.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DbSpec {
    pub label: &'static str,
    pub program: String,
    pub queries: Vec<QuerySpec>,
    /// `RepairOptions::max_changes`; the backend is `Auto` throughout.
    pub repair_max_changes: usize,
}

/// Which class feeds each named latency on this workload; `None` where
/// the workload does not list the latency (it is then not reported: an
/// incidental class would only add a noisy number).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Roles {
    pub commit: Option<Class>,
    pub reject: Option<Class>,
    pub read_latest: Option<Class>,
    pub read_certain: Option<Class>,
    pub schema: Option<Class>,
    pub repair: Option<Class>,
}

/// Everything one run executes, a pure function of
/// `(workload, seed, seconds)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Plan {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u32,
    pub dbs: Vec<DbSpec>,
    /// Run after load, before the measured phase, inside `setup_s`.
    pub warmup: Vec<Op>,
    /// The measured list: the workload's own mix and nothing else.
    pub ops: Vec<Op>,
    pub roles: Roles,
}

impl Plan {
    /// Digest of every input the program will see.
    pub fn input_digest(&self) -> String {
        let mut d = Digest::new();
        let _ = write!(
            d,
            "{}\u{1}{}\u{1}{}",
            self.workload, self.seed, self.seconds
        );
        for db in &self.dbs {
            let _ = write!(d, "\u{2}{db:?}");
        }
        for (tag, ops) in [(3u8, &self.warmup), (4, &self.ops)] {
            d.bytes(&[tag]);
            for op in ops {
                let _ = write!(d, "{op:?}\u{6}");
            }
        }
        d.hex()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expectations_match_only_their_outcome_kind() {
        assert!(Expect::Accepted.met_by(&Outcome::Accepted));
        assert!(!Expect::Accepted.met_by(&Outcome::Repaired { ops: 1 }));
        assert!(Expect::Repaired.met_by(&Outcome::Repaired { ops: 2 }));
        assert!(Expect::Rows(Some(3)).met_by(&Outcome::Rows(3)));
        assert!(!Expect::Rows(Some(3)).met_by(&Outcome::Rows(4)));
        assert!(Expect::Rows(None).met_by(&Outcome::Rows(4)));
        assert!(!Expect::RefusedUnsat.met_by(&Outcome::RefusedViolated));
        assert!(!Expect::Rejected.met_by(&Outcome::Other("conflict".into())));
    }
}
