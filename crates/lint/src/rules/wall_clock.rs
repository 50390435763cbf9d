//! `no-wall-clock`: simulator logic must never read the host clock.
//!
//! Simulation time is [`pcm_types::Ps`], advanced by the event engine; a
//! wall-clock read anywhere in a deterministic crate makes results depend
//! on host speed and destroys the bit-for-bit reproducibility the paper
//! comparison rests on (Eq. 5 service times, 1-rank shard equivalence,
//! thread-count independence). `Instant`/`SystemTime` are legitimate only
//! in tests and for *reporting* how long the simulation took; a reporting
//! read carries a justified waiver rather than an exemption baked into the
//! rule. Host-time measurement lives in `perfbench/`, outside the
//! workspace.

use super::{FileRule, SigView};
use crate::diag::Diagnostic;
use crate::workspace::SourceFile;

/// See module docs.
pub struct NoWallClock;

impl FileRule for NoWallClock {
    fn id(&self) -> &'static str {
        "no-wall-clock"
    }

    fn describe(&self) -> &'static str {
        "Instant/SystemTime reads are forbidden outside tests and waived timing displays"
    }

    fn check_file(&self, file: &SourceFile) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let v = SigView::new(file);
        for i in 0..v.len() {
            if v.kind(i) != crate::lexer::TokKind::Ident {
                continue;
            }
            let name = v.text(i);
            if name != "Instant" && name != "SystemTime" {
                continue;
            }
            if v.in_test(i) {
                continue;
            }
            let t = v.tok(i);
            out.push(file.diag(
                self.id(),
                t.lo,
                t.hi - t.lo,
                format!(
                    "`{name}` reads the wall clock; simulation logic must use `Ps` event \
                     time. If this is pure reporting, add a justified waiver to \
                     lint-allow.txt"
                ),
            ));
        }
        out
    }
}
