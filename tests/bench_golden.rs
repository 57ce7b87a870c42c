//! Integration: the committed `BENCH_*.json` artifacts are exactly what
//! the evaluation harness regenerates, every headline claim holds on
//! them, and `docs/architecture.md` lists the same claims.

use endbox::eval::{ARTIFACTS, CLAIMS};
use std::path::Path;

#[test]
fn artifacts_regenerate_byte_identical_and_hold_every_claim() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let docs = std::fs::read_to_string(root.join("docs/architecture.md")).expect("docs");
    for claim in &CLAIMS {
        assert!(
            ARTIFACTS.iter().any(|(stem, _)| *stem == claim.artifact),
            "claim over an uncatalogued artifact: {}",
            claim.what
        );
        assert!(
            docs.contains(&claim.doc_row()),
            "docs/architecture.md §7 lacks the row:\n{}",
            claim.doc_row()
        );
    }
    // An artifact whose table was deleted must not linger at the root.
    for entry in std::fs::read_dir(root).expect("repository root") {
        let name = entry.expect("dir entry").file_name();
        let name = name.to_string_lossy();
        let Some(stem) = name
            .strip_prefix("BENCH_")
            .and_then(|rest| rest.strip_suffix(".json"))
        else {
            continue;
        };
        assert!(
            ARTIFACTS.iter().any(|(s, _)| *s == stem),
            "{name} is not named by eval::ARTIFACTS: delete it or catalogue its table"
        );
    }
    // The runs share nothing, so regenerate them side by side.
    std::thread::scope(|scope| {
        for (stem, build) in ARTIFACTS {
            scope.spawn(move || {
                let table = build();
                let committed = std::fs::read_to_string(root.join(table.file_name()))
                    .unwrap_or_else(|e| panic!("{}: {e}", table.file_name()));
                assert!(
                    table.to_json() == committed,
                    "{} differs from what `exp all` writes; regenerate and review the diff",
                    table.file_name()
                );
                let mut claims = CLAIMS.iter().filter(|c| c.artifact == stem).peekable();
                assert!(claims.peek().is_some(), "BENCH_{stem}.json backs no claim");
                for claim in claims {
                    let measured = claim.measure(&table);
                    assert!(
                        measured >= claim.floor,
                        "{}: {measured:.3}x is below the {:.2}x floor",
                        claim.what,
                        claim.floor
                    );
                }
            });
        }
    });
}
