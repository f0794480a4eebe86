//! `fmig-origin` — the "tape" server. Binds a loopback port, prints
//! `LISTENING <addr>`, and serves one daemon session: the tape half of
//! the device model with live chaos injection (see `fmig_serve::origin`).

use std::io::Write;
use std::net::TcpListener;
use std::process::ExitCode;

fn run() -> Result<(), String> {
    let mut addr = "127.0.0.1:0".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = it.next().ok_or("--addr needs a value")?,
            "-h" | "--help" => {
                println!("usage: fmig-origin [--addr HOST:PORT]");
                return Ok(());
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let listener = TcpListener::bind(&addr).map_err(|e| format!("bind {addr}: {e}"))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?;
    println!("LISTENING {local}");
    std::io::stdout().flush().ok();
    let summary = fmig_serve::origin::serve(listener)?;
    eprintln!(
        "fmig-origin: session ended: {} advances answered ({} with no recall answer, \
         {} forced by the lag bound or the drain), {} watermarks run, \
         {} completion frames emitted",
        summary.advances,
        summary.empty_advances,
        summary.forced_advances,
        summary.watermarks,
        summary.frames_emitted
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fmig-origin: {e}");
            ExitCode::FAILURE
        }
    }
}
