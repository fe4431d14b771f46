//! Report toolkit for the figure/table generators: CSV files, text
//! tables, ASCII charts for the terminal, and dependency-free SVG line
//! plots.
//!
//! Every experiment binary in `crates/bench` regenerates one of the
//! paper's figures; this crate turns their numbers into artifacts under
//! `results/` without pulling a plotting dependency.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

pub mod ascii;
pub mod csv;
pub mod svg;
pub mod table;

pub use ascii::AsciiChart;
pub use csv::Csv;
pub use svg::{Band, Series, SvgPlot};
pub use table::Table;
