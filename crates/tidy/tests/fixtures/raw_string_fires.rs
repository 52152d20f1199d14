//! The raw string must not mask the real async code that follows it.
pub const EXAMPLE: &str = r#"pub async fn poll() {} // not code"#;
pub async fn poll(link: Link) -> u32 {
    link.ready().await
}
