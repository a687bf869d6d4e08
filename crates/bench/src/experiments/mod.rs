//! One module per reproduced result; see `gossip_core::experiment` for the
//! catalog mapping experiments to paper items.

pub mod e1;
pub mod e10;
pub mod e11;
pub mod e2;
pub mod e3;
pub mod e4;
pub mod e5;
pub mod e6;
pub mod e7;
pub mod e8;
pub mod e9;
pub mod x1;
pub mod x2;
pub mod x3;
pub mod x4;
pub mod x5;

/// An experiment entry: catalog id and the function regenerating its
/// report at a given scale.
pub type Experiment = (&'static str, fn(crate::Scale) -> String);

/// Every experiment, in catalog order — the one table `gossip experiment`
/// and [`run_all`] read.
pub const ALL: [Experiment; 16] = [
    ("E1", e1::run),
    ("E2", e2::run),
    ("E3", e3::run),
    ("E4", e4::run),
    ("E5", e5::run),
    ("E6", e6::run),
    ("E7", e7::run),
    ("E8", e8::run),
    ("E9", e9::run),
    ("E10", e10::run),
    ("E11", e11::run),
    ("X1", x1::run),
    ("X2", x2::run),
    ("X3", x3::run),
    ("X4", x4::run),
    ("X5", x5::run),
];

/// The report function of the experiment with catalog id `id` (`E7`).
pub fn find(id: &str) -> Option<fn(crate::Scale) -> String> {
    ALL.iter().find(|(key, _)| *key == id).map(|&(_, run)| run)
}

/// Runs every experiment at the given scale and concatenates the reports.
pub fn run_all(scale: crate::Scale) -> String {
    let mut out = String::new();
    for (_, run) in ALL {
        out.push_str(&run(scale));
        out.push('\n');
    }
    out
}
