//! Integrity maintenance on the §3.2 university database, comparing the
//! paper's two-phase method against the three baselines on the same
//! updates.
//!
//! ```sh
//! cargo run --example university_integrity
//! ```

use uniform::datalog::{Transaction, Update};
use uniform::integrity::{full_recheck, interleaved_check, lloyd_topor_check, Checker};
use uniform::logic::parse_literal;
use uniform::workload;

fn upd(src: &str) -> Update {
    Update::from_literal(&parse_literal(src).unwrap()).unwrap()
}

fn main() {
    // 500 students, everyone enrolled in cs and attending ddb; enrollment
    // derived by rule.
    let db = workload::deductive_university(500, 0);
    println!(
        "database: {} facts, {} rule(s), {} constraint(s)\n",
        db.facts().len(),
        db.rules().len(),
        db.constraints().len()
    );

    let updates: Vec<(Transaction, &str, &str)> = vec![
        (
            Transaction::single(upd("student(jack)")),
            "student(jack)",
            "rejected: the induced enrolled(jack, cs) requires attends(jack, ddb)",
        ),
        (
            Transaction::new(vec![upd("student(jack)"), upd("attends(jack, ddb)")]),
            "tx {student(jack), attends(jack, ddb)}",
            "accepted: obligation and discharge in one transaction",
        ),
        (
            Transaction::single(upd("not attends(s17, ddb)")),
            "not attends(s17, ddb)",
            "rejected: cdb for s17",
        ),
        (
            Transaction::new(vec![upd("not student(s17)"), upd("not attends(s17, ddb)")]),
            "tx {not student(s17), not attends(s17, ddb)}",
            "accepted: removes student and trace together",
        ),
        (
            Transaction::single(upd("student(s3)")),
            "student(s3)",
            "no-op: already present (Def. 1), nothing evaluated",
        ),
    ];

    let checker = Checker::new(&db);
    for (tx, src, why) in updates {
        println!("update {src:<44} — {why}");

        let t0 = std::time::Instant::now();
        let main = checker.check(&tx);
        let t_main = t0.elapsed();

        let t0 = std::time::Instant::now();
        let full = full_recheck(&db, &tx);
        let t_full = t0.elapsed();

        let t0 = std::time::Instant::now();
        let inter = interleaved_check(&db, &tx);
        let t_inter = t0.elapsed();

        let t0 = std::time::Instant::now();
        let lt = lloyd_topor_check(&db, &tx);
        let t_lt = t0.elapsed();

        assert_eq!(main.satisfied, full.satisfied);
        assert_eq!(main.satisfied, inter.satisfied);
        assert_eq!(main.satisfied, lt.satisfied);

        println!(
            "  verdict: {}",
            if main.satisfied {
                "accepted"
            } else {
                "rejected"
            }
        );
        if !main.satisfied {
            for v in &main.violations {
                println!(
                    "    violated {} via {}",
                    v.constraint,
                    v.culprit
                        .as_ref()
                        .map(|c| c.to_string())
                        .unwrap_or_default()
                );
            }
        }
        println!(
            "  two-phase  : {:>9.1?}  ({} instances evaluated, {} update constraints)",
            t_main, main.stats.instances_evaluated, main.stats.update_constraints
        );
        println!(
            "  full check : {:>9.1?}  ({} constraints re-evaluated)",
            t_full, full.stats.instances_evaluated
        );
        println!(
            "  interleaved: {:>9.1?}  ({} induced updates, {} instance evaluations)",
            t_inter, inter.stats.delta.answers, inter.stats.instances_evaluated
        );
        println!(
            "  lloyd-topor: {:>9.1?}  ({} trigger answers, {} instance evaluations)\n",
            t_lt, lt.stats.delta.answers, lt.stats.instances_evaluated
        );
    }

    println!("(the absolute numbers vary per machine; the shape — two-phase work \n independent of |student|, full check linear in it — is the claim of §3)");
}
