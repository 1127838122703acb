//! The correctness oracle: a `wormserve/1` document against the
//! hand-written expectation of the job that produced it.

use crate::json::{parse, Json};
use crate::workloads::{Engine, Expect};

fn field<'a>(doc: &'a Json, path: &[&str]) -> Result<&'a Json, String> {
    let mut at = doc;
    for key in path {
        at = at
            .get(key)
            .ok_or_else(|| format!("missing `{}`", path.join(".")))?;
    }
    Ok(at)
}

fn string<'a>(doc: &'a Json, path: &[&str]) -> Result<&'a str, String> {
    field(doc, path)?
        .as_str()
        .ok_or_else(|| format!("`{}` is not a string", path.join(".")))
}

fn expect_eq(what: &str, got: &str, want: &str) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what} is `{got}`, expected `{want}`"))
    }
}

/// Check one verdict document. `Err` carries the first mismatch.
pub fn check(document: &str, expect: &Expect) -> Result<(), String> {
    let doc = parse(document)?;
    expect_eq("schema", string(&doc, &["schema"])?, wormserve::SCHEMA)?;
    if doc.has_key_anywhere("error") {
        return Err("the document carries an `error` block".into());
    }
    field(&doc, &["existence", "verdict"])?;

    let free = field(&doc, &["classifier", "is_deadlock_free"])?;
    let truth = Json::Bool(expect.free);
    let undecided_ok = expect.static_may_be_unknown && expect.engine == Engine::Static;
    if *free != truth && !(undecided_ok && *free == Json::Null) {
        return Err(format!(
            "classifier verdict `{}` contradicts the expected {}",
            string(&doc, &["classifier", "verdict"])?,
            if expect.free { "free" } else { "deadlockable" }
        ));
    }

    match expect.engine {
        Engine::Static => {}
        Engine::Search => expect_eq(
            "search verdict",
            string(&doc, &["search", "verdict"])?,
            if expect.free {
                "deadlock-free"
            } else {
                "deadlock-reachable"
            },
        )?,
        Engine::Sim => expect_eq(
            "sim outcome",
            string(&doc, &["sim", "outcome"])?,
            "delivered",
        )?,
    }

    if expect.faulted {
        // Every faulted job routes an acyclic fabric: losing channels
        // cannot close a cycle, so both sides stay acyclic.
        expect_eq(
            "faults baseline",
            string(&doc, &["faults", "baseline"])?,
            "deadlock-free-acyclic",
        )?;
        expect_eq(
            "faults degraded",
            string(&doc, &["faults", "degraded"])?,
            "deadlock-free-acyclic",
        )?;
    } else if doc.get("faults").is_some() {
        return Err("unexpected `faults` block".into());
    }
    Ok(())
}
