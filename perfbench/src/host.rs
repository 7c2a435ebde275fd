//! Host-side measurements: process resource usage, provenance, and the
//! fixed reference loop that flags noisy runs.

use std::fs;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use crate::stats::Fnv;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads process usage through the 64-bit Linux getrusage layout");

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals followed by fourteen
/// `long` fields, the first of which is `ru_maxrss` (KiB).
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn gethostname(name: *mut u8, len: usize) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// Resource usage of this process so far.
#[derive(Copy, Clone, Debug)]
pub struct Usage {
    /// User plus system CPU time, seconds.
    pub cpu_s: f64,
    /// Peak resident set size, MiB.
    pub peak_rss_mb: f64,
}

/// Read this process's resource usage.
pub fn usage() -> Usage {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        _rest: [0; 13],
    };
    // SAFETY: `ru` is a live, writable value laid out as the kernel's
    // 64-bit `struct rusage` (checked by the `compile_error!` gate above),
    // and getrusage writes at most that struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail with a valid pointer");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Usage { cpu_s: secs(&ru.utime) + secs(&ru.stime), peak_rss_mb: ru.maxrss as f64 / 1024.0 }
}

fn hostname() -> String {
    let mut buf = [0u8; 256];
    // SAFETY: the pointer and length describe `buf`, which outlives the
    // call; gethostname writes at most `len` bytes.
    let rc = unsafe { gethostname(buf.as_mut_ptr(), buf.len()) };
    if rc != 0 {
        return "unknown".to_owned();
    }
    let end = buf.iter().position(|b| *b == 0).unwrap_or(buf.len());
    String::from_utf8_lossy(&buf[..end]).into_owned()
}

#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    let mut bytes = Vec::with_capacity(48);
    // SAFETY: CPUID exists on every x86_64 processor; leaves
    // 0x8000_0002..=0x8000_0004 hold the brand string on every processor
    // that reports them through leaf 0x8000_0000.
    #[allow(unused_unsafe)]
    unsafe {
        if __cpuid(0x8000_0000).eax < 0x8000_0004 {
            return "unknown".to_owned();
        }
        for leaf in 0x8000_0002u32..=0x8000_0004 {
            let r = __cpuid(leaf);
            for reg in [r.eax, r.ebx, r.ecx, r.edx] {
                bytes.extend_from_slice(&reg.to_le_bytes());
            }
        }
    }
    String::from_utf8_lossy(&bytes).trim_matches(char::from(0)).trim().to_owned()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    "unknown".to_owned()
}

/// The commit of a git checkout at `root`, read from `.git` without
/// running git; `None` outside a git checkout (the benchmark's usual case).
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let Some(name) = head.trim().strip_prefix("ref: ") else {
        return Some(head.trim().to_owned());
    };
    if let Ok(id) = fs::read_to_string(git.join(name)) {
        return Some(id.trim().to_owned());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| l.strip_suffix(name).map(|id| id.trim().to_owned()))
}

/// A digest of the program's sources (manifests and `.rs` files under
/// `crates/`), identifying the code measured where no commit is known.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs") || p.ends_with("Cargo.toml") {
                out.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut d = Fnv::new();
    for f in &files {
        if let Ok(bytes) = fs::read(f) {
            d.bytes(f.strip_prefix(root).unwrap_or(f).to_string_lossy().as_bytes());
            d.bytes(&bytes);
        }
    }
    d.hex()
}

/// One pass of a fixed CPU-bound loop (splitmix64 over a fixed count),
/// in milliseconds. Its time moves only with the host's speed, so a run
/// whose reference time drifts was disturbed. It flags runs; results are
/// never rescaled by it.
pub fn reference_loop_ms() -> f64 {
    let t = Instant::now();
    let mut z = black_box(0x5eedu64);
    for _ in 0..black_box(20_000_000u64) {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= x >> 31;
    }
    black_box(z);
    t.elapsed().as_secs_f64() * 1e3
}

/// Provenance recorded with every result, as a JSON object.
pub fn provenance_json(threads: usize, seed: u64, workload: &str) -> String {
    let root = Path::new(".");
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"host\":{},\"nproc\":{nproc},\"cpu\":{},\"rustc\":{},\"commit\":{},\
         \"source_digest\":\"{}\",\"threads\":{threads},\"seed\":{seed},\"workload\":\"{workload}\"}}",
        json_str(&hostname()),
        json_str(&cpu_model()),
        json_str(env!("PERFBENCH_RUSTC")),
        git_commit(root).map_or("null".to_owned(), |c| json_str(&c)),
        source_digest(root),
    )
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
