//! Differential test of the byte-level VCF reader against a line-by-line
//! `&str` reference parser of the same grammar, over random VCF text that
//! mixes CRLF endings, missing and haploid calls, stray separators and
//! trailing tabs in the genotype columns, `DP:GT` ordering, indel
//! and multi-allelic skips, unsorted and duplicate `POS`, a second contig,
//! and the occasional malformed line.

use std::io::BufRead;

use omega_genome::vcf::{read_vcf_with, VcfOutcome, VcfReadOptions};
use omega_genome::{Alignment, Allele, GenomeError, SnpVec};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// The reference: `lines()`, a `Vec<&str>` of fields and a `Vec<Allele>`
/// per record, then the same sort / dedup / build as the reader.
fn reference(text: &[u8], opts: VcfReadOptions) -> Result<VcfOutcome, GenomeError> {
    let (mut records, mut skipped, mut unsorted) = (Vec::new(), 0, 0);
    let (mut contig, mut n_hap, mut max_pos) = (None::<String>, None, 0u64);
    for (ln, line) in text.lines().enumerate() {
        let line = line?;
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let f: Vec<&str> = line.split('\t').collect();
        let err = |msg: String| GenomeError::parse("vcf", Some(ln + 1), msg);
        if f.len() < 10 {
            return Err(err("record has fewer than 10 tab-separated fields".into()));
        }
        match &contig {
            None => contig = Some(f[0].to_string()),
            Some(c) if c != f[0] => break,
            _ => {}
        }
        let pos: u64 = f[1].parse().map_err(|_| err("invalid POS".into()))?;
        match opts.region_len {
            Some(len) if pos > len => {
                return Err(err(format!("POS {pos} exceeds the stated region length {len}")))
            }
            _ => {}
        }
        let gt_idx = f[8].split(':').position(|x| x == "GT");
        let (Some(gt_idx), 1, 1, false) = (gt_idx, f[3].len(), f[4].len(), f[4] == ".") else {
            skipped += 1;
            continue;
        };
        let calls: Vec<Allele> = f[9..]
            .iter()
            .flat_map(|s| s.split(':').nth(gt_idx).unwrap_or(".").split(['|', '/']))
            .map(|h| match h {
                "0" => Allele::Zero,
                "1" => Allele::One,
                _ => Allele::Missing,
            })
            .collect();
        match n_hap {
            None => n_hap = Some(calls.len()),
            Some(n) if n != calls.len() => {
                return Err(GenomeError::SampleCountMismatch { expected: n, found: calls.len() })
            }
            _ => {}
        }
        unsorted += usize::from(!records.is_empty() && pos < max_pos);
        max_pos = max_pos.max(pos);
        records.push((pos, SnpVec::from_calls(&calls)));
    }
    records.sort_by_key(|&(pos, _)| pos);
    let before = records.len();
    records.dedup_by_key(|r| r.0);
    let duplicate_records = before - records.len();
    let (positions, sites) = records.into_iter().unzip();
    let alignment = Alignment::new(positions, sites, opts.region_len.unwrap_or(max_pos))?;
    Ok(VcfOutcome {
        alignment,
        skipped_records: skipped,
        unsorted_records: unsorted,
        duplicate_records,
        contig,
    })
}

/// Random VCF bytes, deterministic in `seed`. Most documents are
/// well-formed; a few carry a short record, a bad `POS`, a wrong ploidy,
/// or a non-UTF-8 byte, so error paths are compared too.
fn random_vcf(seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_samples = rng.gen_range(1..4);
    let ploidy = rng.gen_range(1..3);
    let mut doc =
        b"##fileformat=VCFv4.2\n#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT".to_vec();
    for s in 0..n_samples {
        doc.extend_from_slice(format!("\ts{s}").as_bytes());
    }
    doc.push(b'\n');
    let mut chrom = "chr1";
    for _ in 0..rng.gen_range(0..12) {
        if rng.gen_bool(0.05) {
            chrom = "chr2";
        }
        let pos: String = match rng.gen_range(0..40) {
            0 => "x1".into(),
            _ => rng.gen_range(1..30u32).to_string(),
        };
        let (r, a) = [("A", "G"), ("C", "T"), ("A", "GA"), ("G", "G,T"), ("T", "."), ("AC", "A")]
            [rng.gen_range(0..6usize).min(rng.gen_range(0..6))];
        let format = ["GT", "GT", "DP:GT", "GT:DP", "DP"][rng.gen_range(0..5)];
        let mut line = format!("{chrom}\t{pos}\t.\t{r}\t{a}\t.\tPASS\t.\t{format}");
        let columns = if rng.gen_bool(0.03) { rng.gen_range(0..n_samples) } else { n_samples };
        for _ in 0..columns {
            let haps = if rng.gen_bool(0.03) { 3 - ploidy } else { ploidy };
            let gt: Vec<&str> = (0..haps)
                .map(|_| match rng.gen_bool(0.05) {
                    // A separator or `:` where a call belongs, e.g. `:|1`, `||1`.
                    true => [":", "|", "/", "\t"][rng.gen_range(0..4)],
                    false => ["0", "1", "0", "1", ".", "2", ""][rng.gen_range(0..7)],
                })
                .collect();
            let sep = if rng.gen_bool(0.5) { "|" } else { "/" };
            let gt = gt.join(sep);
            let sample = match format {
                "DP:GT" => format!("7:{gt}"),
                "GT:DP" => format!("{gt}:7"),
                "GT" => gt,
                _ => "9".into(),
            };
            line.push('\t');
            line.push_str(&sample);
        }
        if rng.gen_bool(0.1) {
            line.push('\t');
        }
        doc.extend_from_slice(line.as_bytes());
        if rng.gen_bool(0.02) {
            doc.push(0xff);
        }
        doc.extend_from_slice(if rng.gen_bool(0.3) { b"\r\n" } else { b"\n" });
        if rng.gen_bool(0.05) {
            doc.extend_from_slice(b"  \n");
        }
    }
    if rng.gen_bool(0.2) {
        doc.pop(); // last record without its newline
    }
    doc
}

/// Outcomes as comparable text: every count, position and call, or the
/// error message.
fn render(r: Result<VcfOutcome, GenomeError>) -> String {
    match r {
        Err(e) => format!("error: {e}"),
        Ok(o) => {
            let a = &o.alignment;
            let calls: Vec<Vec<Allele>> = a.sites().iter().map(|s| s.iter().collect()).collect();
            format!(
                "skipped {} unsorted {} duplicates {} contig {:?} len {} pos {:?} calls {:?}",
                o.skipped_records,
                o.unsorted_records,
                o.duplicate_records,
                o.contig,
                a.region_len(),
                a.positions(),
                calls
            )
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn byte_reader_matches_str_reference(seed in 0u64..u64::MAX, region in 0u64..3) {
        let doc = random_vcf(seed);
        let opts = VcfReadOptions { region_len: [None, Some(25), Some(1_000)][region as usize] };
        let got = read_vcf_with(&doc[..], opts);
        if let Ok(o) = &got {
            let sites = o.alignment.sites();
            let rebuilt: Vec<SnpVec> =
                sites.iter().map(|s| SnpVec::from_calls(&s.iter().collect::<Vec<_>>())).collect();
            prop_assert!(sites == &rebuilt[..], "packed planes differ from from_calls");
        }
        prop_assert_eq!(render(got), render(reference(&doc, opts)));
    }
}
