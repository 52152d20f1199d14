/*
 * Design notes spanning lines: an async fn would hand events to an
 * executor, tokio::spawn would reorder them, and
 * v.sort_by(|a, b| a.partial_cmp(b).unwrap()) panics on NaN. None of this is code.
 */
/* nesting works too: /* inner async fn mention */ still a comment */
pub fn nothing() {}
