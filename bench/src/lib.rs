//! End-to-end benchmark of the Tukwila engine through `QueryService`, with
//! a separate per-layer traced pass. See `bench/README.md`.

pub mod drive;
pub mod layers;
pub mod procstat;
pub mod spans;
pub mod stats;
pub mod workloads;

/// The value following `--name` on a command line, if present.
pub fn arg<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    let at = args.iter().position(|a| a == name)?;
    args.get(at + 1).map(String::as_str)
}
