// Fixture: the allow escape hatch, same-line and line-above forms.
pub async fn poll() -> u32 { 0 } // um-tidy: allow(async-in-sim) -- fixture: compatibility shim, never awaited in the kernel

// um-tidy: allow(async-in-sim) -- fixture: directive on the line above
pub async fn drain() -> u32 { 0 }

pub fn cast(total_cycles: u64) -> u32 {
    // um-tidy: allow(cycle-trunc-cast) -- fixture: value bounded by config well below u32::MAX
    total_cycles as u32
}
