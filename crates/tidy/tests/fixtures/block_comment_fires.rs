/* Multi-line header comment:
   the v1 line scanner lost track of this block and kept "linting"
   comment text while missing the real async code below. */
pub async fn poll(link: Link) -> u32 { /* trailing block comment */
    link.ready().await
}
