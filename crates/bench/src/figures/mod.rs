//! The results table: one entry per committed `results/<name>.txt`.
//!
//! `um-sweep NAME` renders the entry named `NAME` and `um-sweep --list`
//! names them all. Registry-backed entries run the
//! [`crate::scenario::registry`] scenario of the same name; the others
//! call a render function that returns the result's text, standard header
//! first.

mod evaluation;
mod extensions;
mod motivation;

use crate::scenario::{self, registry};
use crate::EnvScale;

/// How an entry renders its result.
#[derive(Clone, Copy, Debug)]
pub enum Render {
    /// The registry scenario of the same name, through [`scenario::run`].
    Scenario,
    /// A render function over the selected scale.
    Text(fn(EnvScale) -> String),
    /// A render function that also reports whether every self-check it
    /// prints passed.
    Checked(fn(EnvScale) -> (String, bool)),
}

/// One committed result.
#[derive(Clone, Copy, Debug)]
pub struct Entry {
    /// The result's name: `results/<name>.txt`.
    pub name: &'static str,
    /// How to regenerate it.
    pub render: Render,
}

impl Entry {
    /// Renders the result at `env`: its text, and whether its self-checks
    /// passed (always true for entries without any).
    pub fn run(&self, env: EnvScale) -> (String, bool) {
        match self.render {
            Render::Scenario => {
                let mut s =
                    registry::by_name(self.name).expect("scenario entries name registry scenarios");
                env.apply(&mut s);
                let out = scenario::run(&s).expect("registry scenarios are valid");
                (out.text, true)
            }
            Render::Text(f) => (f(env), true),
            Render::Checked(f) => f(env),
        }
    }
}

const fn text(name: &'static str, f: fn(EnvScale) -> String) -> Entry {
    Entry {
        name,
        render: Render::Text(f),
    }
}

const fn scenario(name: &'static str) -> Entry {
    Entry {
        name,
        render: Render::Scenario,
    }
}

/// Every committed result, by name.
pub const ALL: &[Entry] = &[
    text("ablation_hetero", extensions::ablation_hetero),
    text("ablation_routing", extensions::ablation_routing),
    text("ablation_rqmap", extensions::ablation_rqmap),
    text("ablation_snapshot", extensions::ablation_snapshot),
    text("ablation_srpt", extensions::ablation_srpt),
    text("autoscale", extensions::autoscale),
    text("breakdown", evaluation::breakdown),
    scenario("cluster10"),
    text("cluster_autoscale", extensions::cluster_autoscale),
    text("cluster_tail", extensions::cluster_tail),
    text("fault_degradation", extensions::fault_degradation),
    text("fault_hedging", extensions::fault_hedging),
    text("fault_tail", extensions::fault_tail),
    text("fig1", motivation::fig1),
    text("fig14", evaluation::fig14),
    text("fig15", evaluation::fig15),
    text("fig16", evaluation::fig16),
    text("fig17", evaluation::fig17),
    text("fig18", evaluation::fig18),
    text("fig19", evaluation::fig19),
    text("fig2", motivation::fig2),
    text("fig20", evaluation::fig20),
    text("fig3", motivation::fig3),
    text("fig4", motivation::fig4),
    text("fig5", motivation::fig5),
    text("fig6", motivation::fig6),
    text("fig7", motivation::fig7),
    text("fig8", motivation::fig8),
    text("fig9", motivation::fig9),
    text("isoarea", evaluation::isoarea),
    text("other_suites", evaluation::other_suites),
    scenario("sweep_default"),
    text("table1", motivation::table1),
    text("table2", evaluation::table2),
    Entry {
        name: "validate",
        render: Render::Checked(evaluation::validate),
    },
];

/// Looks an entry up by name.
pub fn by_name(name: &str) -> Option<&'static Entry> {
    ALL.iter().find(|e| e.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_entries_are_exactly_the_registry() {
        let entries: Vec<&str> = ALL
            .iter()
            .filter(|e| matches!(e.render, Render::Scenario))
            .map(|e| e.name)
            .collect();
        let mut registry: Vec<String> = registry::all().into_iter().map(|s| s.name).collect();
        registry.sort();
        assert_eq!(entries, registry);
    }
}
