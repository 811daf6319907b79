//! `genasm` — the command-line entry point.

#![forbid(unsafe_code)]

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    if let Err(e) = genasm_cli::run(&args, &mut out) {
        eprintln!("genasm: {e}");
        std::process::exit(e.code);
    }
}
