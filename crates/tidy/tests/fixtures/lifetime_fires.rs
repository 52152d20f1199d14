//! `'a` is a lifetime, not an unterminated char literal: the v1 scanner
//! swallowed the rest of the line after it and missed the async code.
pub fn lookup<'a>(table: &'a [u32], key: usize) -> impl Future<Output = u32> + 'a { async move { table[key] } }

pub fn wait<'a>(link: &'a Link) -> impl Future<Output = u32> + 'a { link.ready().await }
