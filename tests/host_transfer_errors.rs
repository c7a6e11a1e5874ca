//! Error-path pinning for the host runtime's fallible transfer APIs.
//!
//! `try_copy_to_mram` / `try_copy_from_mram` must reject an out-of-range
//! DPU index with [`SimError::BadDpuIndex`], and the parallel batch
//! transfers `try_push_to_mram` / `try_push_to_symbol` must reject a
//! mis-sized batch with [`SimError::ChunkCountMismatch`]. All four reject
//! a byte range past their target (the MRAM bank, or the WRAM symbol) with
//! [`SimError::TransferOutOfRange`]. Every rejection happens without
//! touching any DPU state or advancing the host timeline. The Ok
//! paths are pinned alongside so the fallible wrappers stay equivalent to
//! their panicking counterparts.

use pim_asm::KernelBuilder;
use pim_dpu::{DpuConfig, SimError};
use pim_host::{PimSystem, TransferConfig};

const N_DPUS: u32 = 3;

fn system() -> PimSystem {
    PimSystem::new(N_DPUS, DpuConfig::paper_baseline(1), TransferConfig::default())
}

#[test]
fn try_copy_to_mram_rejects_a_bad_dpu_index() {
    let mut sys = system();
    assert_eq!(
        sys.try_copy_to_mram(N_DPUS, 0, &[1, 2, 3, 4]),
        Err(SimError::BadDpuIndex { dpu: N_DPUS, n_dpus: N_DPUS })
    );
    assert_eq!(
        sys.try_copy_to_mram(u32::MAX, 0, &[]),
        Err(SimError::BadDpuIndex { dpu: u32::MAX, n_dpus: N_DPUS })
    );
    // In-range indices (all of them) succeed.
    for dpu in 0..N_DPUS {
        sys.try_copy_to_mram(dpu, 64, &[dpu as u8; 8]).unwrap();
    }
}

#[test]
fn try_copy_from_mram_rejects_a_bad_dpu_index() {
    let mut sys = system();
    assert_eq!(
        sys.try_copy_from_mram(N_DPUS, 0, 8).unwrap_err(),
        SimError::BadDpuIndex { dpu: N_DPUS, n_dpus: N_DPUS }
    );
    // Round-trip through the Ok paths: what was pushed comes back.
    sys.try_copy_to_mram(1, 128, &[0xAB; 16]).unwrap();
    assert_eq!(sys.try_copy_from_mram(1, 128, 16).unwrap(), vec![0xAB; 16]);
    // The failed copy must not have written DPU 2.
    assert_eq!(sys.try_copy_from_mram(2, 128, 16).unwrap(), vec![0u8; 16]);
}

#[test]
fn try_push_to_mram_rejects_a_mis_sized_batch() {
    let mut sys = system();
    let chunk: &[u8] = &[7; 8];
    // One chunk short and one chunk over: both batch-sizing errors.
    assert_eq!(
        sys.try_push_to_mram(0, &[chunk; 2]),
        Err(SimError::ChunkCountMismatch { chunks: 2, n_dpus: N_DPUS })
    );
    assert_eq!(
        sys.try_push_to_mram(0, &[chunk; 4]),
        Err(SimError::ChunkCountMismatch { chunks: 4, n_dpus: N_DPUS })
    );
    assert_eq!(
        sys.try_push_to_mram(0, &[]),
        Err(SimError::ChunkCountMismatch { chunks: 0, n_dpus: N_DPUS })
    );
    // The failed batches wrote nothing.
    assert_eq!(sys.try_copy_from_mram(0, 0, 8).unwrap(), vec![0u8; 8]);
    // A correctly-sized batch lands per-DPU.
    sys.try_push_to_mram(256, &[&[1; 4], &[2; 4], &[3; 4]]).unwrap();
    for dpu in 0..N_DPUS {
        assert_eq!(sys.try_copy_from_mram(dpu, 256, 4).unwrap(), vec![dpu as u8 + 1; 4]);
    }
}

#[test]
fn try_push_to_symbol_rejects_a_mis_sized_batch() {
    let mut sys = system();
    let mut k = KernelBuilder::new();
    k.global_zeroed("buf", 16);
    k.stop();
    sys.load(&k.build().expect("symbol program builds")).unwrap();

    let chunk: &[u8] = &[9; 4];
    assert_eq!(
        sys.try_push_to_symbol("buf", &[chunk; 1]),
        Err(SimError::ChunkCountMismatch { chunks: 1, n_dpus: N_DPUS })
    );
    // A correctly-sized batch succeeds (the symbol exists on every DPU).
    sys.try_push_to_symbol("buf", &[&[1; 4], &[2; 4], &[3; 4]]).unwrap();
}

/// MRAM bank size of the paper-baseline layout.
const MRAM_BYTES: u32 = 64 * 1024 * 1024;

#[test]
fn try_mram_transfers_reject_a_range_past_the_bank() {
    let mut sys = system();
    let before = *sys.timeline();
    let past = |addr: u32, len: u64| SimError::TransferOutOfRange { addr, len, size: MRAM_BYTES };
    let chunk: &[u8] = &[5; 8];
    assert_eq!(sys.try_push_to_mram(MRAM_BYTES - 4, &[chunk; 3]), Err(past(MRAM_BYTES - 4, 8)));
    assert_eq!(sys.try_copy_to_mram(1, u32::MAX, &[1]), Err(past(u32::MAX, 1)));
    assert_eq!(sys.try_copy_from_mram(2, MRAM_BYTES, 1), Err(past(MRAM_BYTES, 1)));
    // Nothing was written and no host time passed.
    assert_eq!(*sys.timeline(), before);
    for dpu in 0..N_DPUS {
        assert_eq!(sys.dpu(dpu).read_mram(MRAM_BYTES - 8, 8), vec![0u8; 8]);
    }
    // Ranges that end exactly at the bank's last byte are in range.
    sys.try_push_to_mram(MRAM_BYTES - 8, &[chunk; 3]).unwrap();
    assert_eq!(sys.try_copy_from_mram(2, MRAM_BYTES - 8, 8).unwrap(), chunk.to_vec());
}

#[test]
fn try_push_to_symbol_rejects_a_chunk_larger_than_the_symbol() {
    let mut sys = system();
    let mut k = KernelBuilder::new();
    let addr = k.global_zeroed("buf", 16);
    k.stop();
    sys.load(&k.build().expect("symbol program builds")).unwrap();
    let before = *sys.timeline();
    let big: &[u8] = &[7; 17];
    assert_eq!(
        sys.try_push_to_symbol("buf", &[&[1; 16], big, &[3; 4]]),
        Err(SimError::TransferOutOfRange { addr, len: 17, size: 16 })
    );
    // No DPU was written (not even DPU 0, ahead of the oversized chunk)
    // and no host time passed.
    assert_eq!(*sys.timeline(), before);
    for dpu in 0..N_DPUS {
        assert_eq!(sys.dpu(dpu).read_wram_symbol("buf"), vec![0u8; 16]);
    }
}
