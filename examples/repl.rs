//! An interactive shell over [`uniform::ConcurrentDatabase`].
//!
//! ```sh
//! cargo run --example repl
//! ```
//!
//! Commands:
//!
//! ```text
//! fact(a, b).                       guarded insertion
//! - fact(a, b).                     guarded deletion
//! lit(X) where cond(X), ...         guarded conditional (bulk) update
//! head(X) :- body(X).               guarded rule addition (incremental)
//! :delrule head(X) :- body(X).      guarded rule removal (incremental)
//! constraint name: <formula>.       guarded constraint addition
//! :delconstraint name               constraint removal
//! ? <closed formula>                truth query
//! ?- lit1(X), not lit2(X)           conjunctive query with answers
//! :facts  :rules  :constraints      inspect state
//! :sat                              check schema satisfiability
//! :check <literal>                  dry-run an update
//! :why fact(a, b).                  derivation tree of a model fact
//! :save <path>  :load <path>        persist / restore the program
//! :help   :quit
//! ```

use std::io::{BufRead, Write};
use uniform::datalog::{Transaction, Update};
use uniform::logic::parse_literal;
use uniform::{ConcurrentDatabase, Consistency, Params, SatOutcome};

fn main() {
    let mut db = ConcurrentDatabase::parse("").expect("the empty program is consistent");
    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    println!("uniform deductive database — :help for commands, :quit to leave");
    loop {
        print!("> ");
        out.flush().ok();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match dispatch(&mut db, line) {
            Command::Quit => break,
            Command::Done => {}
        }
    }
    println!("bye.");
}

enum Command {
    Done,
    Quit,
}

fn dispatch(db: &mut ConcurrentDatabase, line: &str) -> Command {
    match line {
        ":quit" | ":q" => return Command::Quit,
        ":help" | ":h" => {
            println!(
                "  fact(a, b).                      guarded insertion\n  \
                 - fact(a, b).                    guarded deletion\n  \
                 lit(X) where cond(X), ...        guarded conditional (bulk) update\n  \
                 head(X) :- body(X).              guarded rule addition (incremental)\n  \
                 :delrule head(X) :- body(X).     guarded rule removal (incremental)\n  \
                 constraint name: <formula>.      guarded constraint addition\n  \
                 :delconstraint name              constraint removal\n  \
                 ? <closed formula>               truth query\n  \
                 ?- lit1(X), not lit2(X)          conjunctive query\n  \
                 :facts :rules :constraints :sat :check <lit>\n  \
                 :why fact(a, b).                 derivation tree of a model fact\n  \
                 :save <path> :load <path> :quit"
            );
            return Command::Done;
        }
        ":facts" => {
            let mut facts: Vec<String> = db
                .snapshot()
                .facts()
                .iter()
                .map(|f| f.to_string())
                .collect();
            facts.sort();
            if facts.is_empty() {
                println!("  (none)");
            }
            for f in facts {
                println!("  {f}.");
            }
            return Command::Done;
        }
        ":rules" => {
            for r in db.snapshot().rules().rules() {
                println!("  {r}.");
            }
            return Command::Done;
        }
        ":constraints" => {
            for c in db.snapshot().constraints() {
                println!("  {c}");
            }
            return Command::Done;
        }
        ":save" => {
            println!("  usage: :save <path>");
            return Command::Done;
        }
        ":load" => {
            println!("  usage: :load <path>");
            return Command::Done;
        }
        ":sat" => {
            let report = db.check_satisfiability();
            match report.outcome {
                SatOutcome::Satisfiable { model, .. } => {
                    println!("  satisfiable; witness model:");
                    for f in model {
                        println!("    {f}");
                    }
                }
                other => println!("  {other:?}"),
            }
            return Command::Done;
        }
        _ => {}
    }

    if let Some(path) = line.strip_prefix(":save ") {
        match std::fs::write(path.trim(), db.to_program_source()) {
            Ok(()) => println!("  saved to {}", path.trim()),
            Err(e) => println!("  {e}"),
        }
        return Command::Done;
    }

    if let Some(path) = line.strip_prefix(":load ") {
        match std::fs::read_to_string(path.trim()) {
            Ok(src) => match ConcurrentDatabase::parse(&src) {
                Ok(loaded) => {
                    *db = loaded;
                    println!("  loaded {}", path.trim());
                }
                Err(e) => println!("  {e}"),
            },
            Err(e) => println!("  {e}"),
        }
        return Command::Done;
    }

    if let Some(rest) = line.strip_prefix(":why ") {
        match db.explain(rest.trim().trim_end_matches('.')) {
            Ok(Some(tree)) => println!("{tree}"),
            Ok(None) => println!("  not in the model."),
            Err(e) => println!("  {e}"),
        }
        return Command::Done;
    }

    if let Some(rest) = line.strip_prefix(":delrule ") {
        match db.try_remove_rule(rest.trim()) {
            Ok(true) => println!("  rule removed."),
            Ok(false) => println!("  no such rule."),
            Err(e) => println!("  rejected: {e}"),
        }
        return Command::Done;
    }

    if let Some(rest) = line.strip_prefix(":delconstraint ") {
        if db.remove_constraint(rest.trim()) {
            println!("  constraint removed.");
        } else {
            println!("  no such constraint.");
        }
        return Command::Done;
    }

    if let Some(rest) = line.strip_prefix(":check ") {
        match parse_literal(rest) {
            Ok(lit) => match Update::from_literal(&lit) {
                Some(u) => {
                    let report = db.check(&Transaction::single(u));
                    if report.satisfied {
                        println!("  would be accepted");
                    } else {
                        for v in &report.violations {
                            println!("  would violate {}", v.constraint);
                        }
                    }
                }
                None => println!("  update must be ground"),
            },
            Err(e) => println!("  {e}"),
        }
        return Command::Done;
    }

    if let Some(rest) = line.strip_prefix("?-") {
        let rows = db.prepare(rest.trim()).and_then(|q| {
            db.session()
                .execute(&q, &Params::new(), Consistency::Latest)
        });
        match rows {
            Ok(rows) if rows.is_empty() => println!("  no."),
            Ok(rows) if rows.columns().is_empty() => println!("  yes."),
            Ok(rows) => {
                for row in &rows {
                    let row: Vec<String> = row.iter().map(|(v, c)| format!("{v} = {c}")).collect();
                    println!("  {}", row.join(", "));
                }
            }
            Err(e) => println!("  {e}"),
        }
        return Command::Done;
    }

    if let Some(rest) = line.strip_prefix('?') {
        match db.query(rest.trim().trim_end_matches('.')) {
            Ok(v) => println!("  {}", if v { "yes." } else { "no." }),
            Err(e) => println!("  {e}"),
        }
        return Command::Done;
    }

    if let Some(rest) = line.strip_prefix('-') {
        match db.try_delete(rest.trim()) {
            Ok(_) => println!("  deleted."),
            Err(e) => println!("  rejected: {e}"),
        }
        return Command::Done;
    }

    if line.starts_with("constraint") {
        // constraint name: formula.
        let body = line.trim_start_matches("constraint").trim();
        let Some((name, formula)) = body.split_once(':') else {
            println!("  expected `constraint name: formula.`");
            return Command::Done;
        };
        match db.try_add_constraint(name.trim(), formula.trim().trim_end_matches('.')) {
            Ok(true) => println!("  constraint added."),
            Ok(false) => println!("  already present."),
            Err(e) => println!("  rejected: {e}"),
        }
        return Command::Done;
    }

    if line.contains(":-") {
        match db.try_add_rule(line) {
            Ok(true) => println!("  rule added."),
            Ok(false) => println!("  already present."),
            Err(e) => println!("  rejected: {e}"),
        }
        return Command::Done;
    }

    if line.contains(" where ") {
        match db.try_apply_where(line.trim_end_matches('.')) {
            Ok(outcome) => println!(
                "  applied ({} instance(s) evaluated).",
                outcome.report.stats.instances_evaluated
            ),
            Err(e) => println!("  rejected: {e}"),
        }
        return Command::Done;
    }

    // Default: guarded fact insertion.
    match db.try_insert(line) {
        Ok(_) => println!("  inserted."),
        Err(e) => println!("  rejected: {e}"),
    }
    Command::Done
}
