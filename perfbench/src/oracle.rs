//! Output checks, one family per workload. Each is computed apart from the
//! program (a reference map, a published test vector, closed-form sizes and
//! bounds, the benchmark's own counts), never a stored copy of an earlier
//! output. [`self_test`] feeds every check one wrong output and demands
//! that it fires.

use std::collections::BTreeMap;
use zc_workloads::crypto::{cbc, Aes256, BLOCK};

pub type Check = Result<(), String>;

fn ensure(ok: bool, msg: impl FnOnce() -> String) -> Check {
    if ok {
        Ok(())
    } else {
        Err(msg())
    }
}

// ---- kv_zc ----------------------------------------------------------------

/// A GET must return exactly the value the reference map holds.
pub fn kv_get(key: u64, got: Option<&[u8]>, want: u64) -> Check {
    ensure(got == Some(&want.to_le_bytes()[..]), || {
        format!("GET {key:#x}: got {got:?}, reference holds {want:#x}")
    })
}

/// A final `iter_all` must hold exactly the reference map's pairs.
pub fn kv_contents(entries: &[(Vec<u8>, Vec<u8>)], reference: &BTreeMap<u64, u64>) -> Check {
    let mut seen = BTreeMap::new();
    for (k, v) in entries {
        let (Ok(k), Ok(v)) = (<[u8; 8]>::try_from(&k[..]), <[u8; 8]>::try_from(&v[..])) else {
            return Err(format!("iter_all returned a malformed entry {k:?}={v:?}"));
        };
        if seen
            .insert(u64::from_le_bytes(k), u64::from_le_bytes(v))
            .is_some()
        {
            return Err(format!("iter_all returned key {k:?} twice"));
        }
    }
    ensure(&seen == reference, || {
        format!(
            "iter_all holds {} pairs, reference {} (first difference: {:?})",
            seen.len(),
            reference.len(),
            seen.iter().zip(reference).find(|(a, b)| a != b)
        )
    })
}

/// Every ocall the host fs served must be covered by exactly one path
/// count of the runtime's `CallStats`, and no call may be lost.
pub fn calls_cover_host(path_total: u64, issued: u64, host_served: u64) -> Check {
    ensure(path_total == host_served && issued == path_total, || {
        format!(
            "CallStats paths {path_total} / issued {issued} vs host-served ocalls {host_served}"
        )
    })
}

// ---- lmbench_phased -------------------------------------------------------

/// `read(/dev/zero, 8)` returns 8 zero bytes.
pub fn lm_read(n: usize, buf: &[u8]) -> Check {
    ensure(n == 8 && buf == [0u8; 8], || {
        format!("read(/dev/zero, 8) returned {n} bytes {buf:?}")
    })
}

/// `write(/dev/null, 8)` returns 8.
pub fn lm_write(n: usize) -> Check {
    ensure(n == 8, || format!("write(/dev/null, 8) returned {n}"))
}

/// The overload plane's ledger must match the benchmark's own count of
/// dispatches offered and of sheds per reason, and admit the rest.
pub fn shed_ledger(
    mine_offered: u64,
    mine_shed: &[u64],
    plane_offered: u64,
    plane_admitted: u64,
    plane_shed: &[u64],
) -> Check {
    let shed: u64 = mine_shed.iter().sum();
    ensure(
        mine_offered == plane_offered
            && mine_shed == plane_shed
            && plane_admitted + shed == plane_offered,
        || {
            format!(
                "benchmark offered {mine_offered} shed {mine_shed:?}; plane offered \
                 {plane_offered} admitted {plane_admitted} shed {plane_shed:?}"
            )
        },
    )
}

/// Execution count as the runtime promises it: the recovery plane never
/// replayed or redelivered anything, and the host executed every completed
/// op once, plus at most one extra execution per watchdog cancellation —
/// the supervisor's documented trade-off: a worker that stalls past the
/// watchdog deadline may already be running the call that the caller then
/// re-routes to a regular ocall.
pub fn executions(
    host_ops: u64,
    completed_ops: u64,
    watchdog_cancels: u64,
    replayed: u64,
    redelivered: u64,
) -> Check {
    ensure(
        host_ops >= completed_ops
            && host_ops - completed_ops <= watchdog_cancels
            && replayed == 0
            && redelivered == 0,
        || {
            format!(
                "host executed {host_ops} ops for {completed_ops} completed with \
                 {watchdog_cancels} watchdog cancellations (replayed {replayed}, \
                 redelivered {redelivered})"
            )
        },
    )
}

// ---- crypto_intel ---------------------------------------------------------

fn hex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex literal"))
        .collect()
}

/// NIST SP 800-38A F.2.5 (CBC-AES256.Encrypt): four blocks; PKCS#7 then
/// appends a fifth, full padding block.
pub fn nist_cbc_aes256() -> Check {
    let key: [u8; 32] = hex("603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4")
        .try_into()
        .expect("32-byte key");
    let iv: [u8; 16] = hex("000102030405060708090a0b0c0d0e0f")
        .try_into()
        .expect("16-byte iv");
    let pt = hex(concat!(
        "6bc1bee22e409f96e93d7e117393172a",
        "ae2d8a571e03ac9c9eb76fac45af8e51",
        "30c81c46a35ce411e5fbc1191a0a52ef",
        "f69f2445df4f9b17ad2b417be66c3710"
    ));
    let want = hex(concat!(
        "f58c4c04d6e5f1ba779eabfb5f7bfbd6",
        "9cfc4e967edb808d679f777bc6702c7d",
        "39f23369a9d9bacfa530e26304231461",
        "b2eb05e2c39be9fcda6c19078c6a9d1b"
    ));
    let ct = cbc::encrypt(&Aes256::new(&key), &iv, &pt);
    ensure(ct.len() == 80 && ct[..64] == want[..], || {
        format!("CBC-AES256 vector mismatch: got {} bytes", ct.len())
    })
}

/// Framed ciphertext size of a `file_len`-byte file in `chunk`-byte
/// chunks: a 4-byte length plus PKCS#7-padded blocks per chunk.
pub fn framed_len(file_len: usize, chunk: usize) -> u64 {
    (0..file_len)
        .step_by(chunk)
        .map(|off| {
            let n = chunk.min(file_len - off);
            4 + BLOCK as u64 * (n as u64 / BLOCK as u64 + 1)
        })
        .sum()
}

/// One encrypt-then-decrypt: the sizes are the closed-form ones, the
/// first frame is the (vector-checked) CBC encryption of the first chunk,
/// and the restored file equals the plaintext byte for byte.
pub fn crypto_round_trip(
    aes: &Aes256,
    iv: &[u8; BLOCK],
    plaintext: &[u8],
    chunk: usize,
    ciphertext: &[u8],
    restored: &[u8],
) -> Check {
    let want_len = framed_len(plaintext.len(), chunk);
    ensure(ciphertext.len() as u64 == want_len, || {
        format!("ciphertext {} bytes, expected {want_len}", ciphertext.len())
    })?;
    let first = cbc::encrypt(aes, iv, &plaintext[..chunk.min(plaintext.len())]);
    ensure(
        ciphertext.get(..4) == Some(&(first.len() as u32).to_le_bytes()[..])
            && ciphertext.get(4..4 + first.len()) == Some(&first[..]),
        || "first ciphertext frame is not the CBC encryption of the first chunk".to_string(),
    )?;
    ensure(restored == plaintext, || {
        let at = restored.iter().zip(plaintext).position(|(a, b)| a != b);
        format!(
            "round trip restored {} of {} bytes, first difference at {at:?}",
            restored.len(),
            plaintext.len()
        )
    })
}

// ---- des_campaign ---------------------------------------------------------

/// Every call of the trace completed, and the simulated duration is at
/// least the busiest caller's own host work (each call blocks its caller).
pub fn replay(
    label: &str,
    completed: u64,
    trace_len: u64,
    duration_cycles: u64,
    bound_cycles: u64,
) -> Check {
    ensure(completed == trace_len, || {
        format!("{label}: {completed} of {trace_len} trace calls completed")
    })?;
    ensure(duration_cycles >= bound_cycles, || {
        format!("{label}: simulated {duration_cycles} cycles < host-work bound {bound_cycles}")
    })
}

/// Open-loop conservation: every offered call completed, was shed, was
/// abandoned or was refused, and some traffic actually ran.
pub fn open_loop_conserves(
    offered: u64,
    completed: u64,
    shed: u64,
    abandoned: u64,
    refused: u64,
) -> Check {
    ensure(
        completed > 0 && offered == completed + shed + abandoned + refused,
        || {
            format!(
                "open loop offered {offered} != completed {completed} + shed {shed} + \
                 abandoned {abandoned} + refused {refused}"
            )
        },
    )
}

/// Fig. 8's ordering: ZC finishes the kissdb replay before `no_sl`.
pub fn zc_beats_no_sl(zc_cycles: u64, no_sl_cycles: u64) -> Check {
    ensure(zc_cycles < no_sl_cycles, || {
        format!("zc took {zc_cycles} cycles, no_sl {no_sl_cycles}: Fig. 8 ordering violated")
    })
}

// ---- self-test ------------------------------------------------------------

/// Feed each check one right and one deliberately wrong output; every
/// wrong one must be caught.
pub fn self_test() -> Check {
    fn must_fail(name: &str, c: Check) -> Check {
        ensure(c.is_err(), || {
            format!("self-test: check '{name}' did not fire")
        })
    }
    // kv_zc: a flipped GET value, a dropped pair, an uncovered ocall.
    kv_get(1, Some(&7u64.to_le_bytes()), 7)?;
    must_fail("kv_get", kv_get(1, Some(&(7u64 ^ 1).to_le_bytes()), 7))?;
    must_fail("kv_get(None)", kv_get(1, None, 7))?;
    let reference: BTreeMap<u64, u64> = [(1, 10), (2, 20)].into();
    let pairs = |m: &BTreeMap<u64, u64>| -> Vec<(Vec<u8>, Vec<u8>)> {
        m.iter()
            .map(|(k, v)| (k.to_le_bytes().to_vec(), v.to_le_bytes().to_vec()))
            .collect()
    };
    kv_contents(&pairs(&reference), &reference)?;
    let mut flipped = reference.clone();
    flipped.insert(2, 21);
    must_fail("kv_contents", kv_contents(&pairs(&flipped), &reference))?;
    must_fail(
        "kv_contents(dropped)",
        kv_contents(&pairs(&reference)[..1], &reference),
    )?;
    calls_cover_host(100, 100, 100)?;
    must_fail("calls_cover_host", calls_cover_host(100, 100, 101))?;

    // lmbench_phased: a non-zero read, a short write, an uncounted shed,
    // a duplicated execution.
    lm_read(8, &[0; 8])?;
    must_fail("lm_read", lm_read(8, &[0, 0, 0, 1, 0, 0, 0, 0]))?;
    lm_write(8)?;
    must_fail("lm_write", lm_write(7))?;
    shed_ledger(10, &[0, 0, 0, 4, 0], 10, 6, &[0, 0, 0, 4, 0])?;
    must_fail(
        "shed_ledger",
        shed_ledger(10, &[0, 0, 0, 3, 0], 10, 6, &[0, 0, 0, 4, 0]),
    )?;
    executions(5, 5, 0, 0, 0)?;
    executions(6, 5, 1, 0, 0)?;
    must_fail("executions(duplicate)", executions(6, 5, 0, 0, 0))?;
    must_fail("executions(two per cancel)", executions(7, 5, 1, 0, 0))?;
    must_fail("executions(lost)", executions(4, 5, 0, 0, 0))?;
    must_fail("executions(replayed)", executions(5, 5, 0, 1, 0))?;

    // crypto_intel: the vector itself, then a corrupted ciphertext block
    // and a corrupted restored byte.
    nist_cbc_aes256()?;
    let aes = Aes256::new(&[7; 32]);
    let iv = [3u8; BLOCK];
    let pt: Vec<u8> = (0..100u8).collect();
    let chunk = 40;
    let mut ct = Vec::new();
    let mut chain = iv;
    for part in pt.chunks(chunk) {
        let c = cbc::encrypt(&aes, &chain, part);
        chain.copy_from_slice(&c[c.len() - BLOCK..]);
        ct.extend_from_slice(&(c.len() as u32).to_le_bytes());
        ct.extend_from_slice(&c);
    }
    crypto_round_trip(&aes, &iv, &pt, chunk, &ct, &pt)?;
    let mut bad_ct = ct.clone();
    bad_ct[4 + BLOCK] ^= 0x80;
    must_fail(
        "crypto_round_trip(ciphertext)",
        crypto_round_trip(&aes, &iv, &pt, chunk, &bad_ct, &pt),
    )?;
    let mut bad_pt = pt.clone();
    bad_pt[99] ^= 1;
    must_fail(
        "crypto_round_trip(restored)",
        crypto_round_trip(&aes, &iv, &pt, chunk, &ct, &bad_pt),
    )?;
    must_fail(
        "crypto_round_trip(length)",
        crypto_round_trip(&aes, &iv, &pt, chunk, &ct[..ct.len() - BLOCK], &pt),
    )?;

    // des_campaign: a dropped simulated call, a too-fast run, a leaked
    // open-loop arrival, a reversed Fig. 8 ordering.
    replay("t", 10, 10, 500, 400)?;
    must_fail("replay(dropped)", replay("t", 9, 10, 500, 400))?;
    must_fail("replay(bound)", replay("t", 10, 10, 300, 400))?;
    open_loop_conserves(10, 7, 1, 1, 1)?;
    must_fail("open_loop_conserves", open_loop_conserves(10, 6, 1, 1, 1))?;
    zc_beats_no_sl(1, 2)?;
    must_fail("zc_beats_no_sl", zc_beats_no_sl(2, 2))
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_check_fires_on_a_wrong_output() {
        super::self_test().unwrap();
    }

    #[test]
    fn framed_len_matches_pkcs7_padding() {
        // 40 B → 48 B padded; 16 B (aligned) → 32 B; plus 4 B headers.
        assert_eq!(super::framed_len(56, 40), 4 + 48 + 4 + 32);
        assert_eq!(super::framed_len(0, 40), 0);
    }
}
