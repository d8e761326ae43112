//! Module-specific gates: the workspace-wide `IoTicket` minting rule.

use crate::report::Finding;
use crate::scrub::{find_word, Scrubbed};

/// Where `IoTicket(` construction is legal.
pub const TICKET_HOME: &str = "crates/blockdev/src/aio.rs";

/// Gate: completion tickets are minted only by the aio engine. A forged
/// ticket would unbalance the submitted/completed accounting `drain`
/// and the crash path rely on.
pub fn check_ticket_construction(rel: &str, src: &Scrubbed, findings: &mut Vec<Finding>) {
    if rel == TICKET_HOME {
        return;
    }
    let b = src.code.as_bytes();
    for pos in find_word(&src.code, "IoTicket") {
        let mut j = pos + "IoTicket".len();
        while j < b.len() && b[j].is_ascii_whitespace() {
            j += 1;
        }
        if b.get(j) != Some(&b'(') {
            continue;
        }
        // `IoTicket` used as a tuple-struct pattern or type mention is
        // fine; a call is construction. Patterns appear after `let`/
        // `Some(`/match arms — but the engine's API never exposes the
        // payload, so any `IoTicket(` outside aio.rs is construction.
        let ln = src.line_of(pos);
        findings.push(Finding::new(
            "ticket",
            rel,
            ln,
            format!(
                "`IoTicket(` constructed outside {TICKET_HOME} — tickets are \
                 minted only by `AioEngine::submit`; a forged ticket unbalances \
                 the submitted/completed accounting"
            ),
            format!("forge:{}", src.lines()[ln - 1].trim()),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scrub::Scrubbed;

    #[test]
    fn ticket_gate() {
        let forged = Scrubbed::new("fn f() { let t = IoTicket(7); }");
        let mut f = Vec::new();
        check_ticket_construction("crates/wafl/src/cp.rs", &forged, &mut f);
        assert_eq!(f.len(), 1);
        let mut f = Vec::new();
        check_ticket_construction(TICKET_HOME, &forged, &mut f);
        assert!(f.is_empty());
        let mention = Scrubbed::new("fn f(t: IoTicket) -> u64 { t.id() }");
        let mut f = Vec::new();
        check_ticket_construction("crates/wafl/src/cp.rs", &mention, &mut f);
        assert!(f.is_empty());
    }
}
