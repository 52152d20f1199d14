//! Raw strings carrying rule-tripping text are data, not code.
pub fn snippet() -> &'static str {
    r#"pub async fn poll() { tokio::spawn(work()).await }"#
}

pub fn hashed() -> &'static str {
    r##"nested "#quote#" and v.sort_by(|a, b| a.partial_cmp(b).unwrap()) inside"##
}
