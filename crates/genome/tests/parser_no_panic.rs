//! Property tests backing the no-panic-lib lint rule: garbled or
//! truncated `ms` and VCF inputs must surface as `Err` (or a benign
//! `Ok`) — the parsers must never panic, whatever bytes arrive.
//!
//! Generated documents are ASCII, so byte-offset truncation below is
//! always on a char boundary; the one non-UTF-8 case splices its high
//! byte in after truncating.

use omega_genome::fasta::read_fasta;
use omega_genome::ms::{read_ms, MsReadOptions};
use omega_genome::vcf::read_vcf;
use omega_genome::{Alignment, GenomeError};
use proptest::collection::vec;
use proptest::prelude::*;

/// Characters that keep garbled text *plausibly* ms-shaped, so cases hit
/// the parser's interior rather than bailing on the first line.
const MS_SOUP: &[u8] = b"01 \n\t//segsites:pon.-2N?";
/// Characters that keep garbled text VCF-shaped.
const VCF_SOUP: &[u8] = b"01 \n\r\t#|/:.chrGTA";
/// Letters only — any token drawn from these can never parse as a count.
const LETTERS: &[u8] = b"abcdefghijklmnopqrstuvwxyz";

fn opts() -> MsReadOptions {
    MsReadOptions { region_len: 10_000 }
}

/// Structural invariants any successfully parsed alignment must satisfy.
fn check_alignment(a: &Alignment) -> Result<(), proptest::TestCaseError> {
    prop_assert_eq!(a.n_sites(), a.positions().len());
    prop_assert!(a.positions().windows(2).all(|w| w[0] <= w[1]));
    for s in a.sites() {
        prop_assert_eq!(s.n_samples(), a.n_samples());
    }
    Ok(())
}

/// A well-formed multi-replicate ms document.
fn valid_ms_doc(reps: usize, sites: usize, samples: usize) -> String {
    let mut doc = String::from("ms 4 2 -s 3\n1234 5678 9012\n\n");
    for r in 0..reps {
        doc.push_str("//\n");
        doc.push_str(&format!("segsites: {sites}\n"));
        doc.push_str("positions:");
        for i in 0..sites {
            doc.push_str(&format!(" {:.5}", (i + 1) as f64 / (sites + 1) as f64));
        }
        doc.push('\n');
        for s in 0..samples {
            for i in 0..sites {
                doc.push(if (r + s + i) % 2 == 0 { '0' } else { '1' });
            }
            doc.push('\n');
        }
        doc.push('\n');
    }
    doc
}

/// A well-formed single-contig VCF document.
fn valid_vcf_doc(records: usize) -> String {
    let mut doc = String::from(
        "##fileformat=VCFv4.2\n#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\ts1\ts2\n",
    );
    for i in 0..records {
        let gt = if i % 2 == 0 { "0|1\t1|0" } else { "1|1\t0|0" };
        doc.push_str(&format!("chr1\t{}\t.\tA\tT\t.\tPASS\t.\tGT\t{gt}\n", 100 * (i + 1)));
    }
    doc
}

/// (document, cut-offset) pairs for truncation tests.
fn doc_with_cut(doc: String) -> impl Strategy<Value = (String, usize)> {
    let len = doc.len();
    (0..len + 1).prop_map(move |cut| (doc.clone(), cut))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn ms_arbitrary_bytes_never_panic(bytes in vec(0u8..255, 0..400)) {
        if let Ok(reps) = read_ms(&bytes[..], opts()) {
            for a in &reps {
                check_alignment(a)?;
            }
        }
    }

    #[test]
    fn ms_format_shaped_soup_never_panics(idx in vec(0usize..MS_SOUP.len(), 0..300)) {
        let text: String = idx.iter().map(|&i| MS_SOUP[i] as char).collect();
        if let Ok(reps) = read_ms(text.as_bytes(), opts()) {
            for a in &reps {
                check_alignment(a)?;
            }
        }
    }

    #[test]
    fn truncated_ms_never_panics(case in (1usize..4, 1usize..6, 1usize..5)
        .prop_flat_map(|(r, s, n)| doc_with_cut(valid_ms_doc(r, s, n))))
    {
        let (doc, cut) = case;
        if let Ok(reps) = read_ms(&doc.as_bytes()[..cut], opts()) {
            for a in &reps {
                check_alignment(a)?;
            }
        }
    }

    #[test]
    fn mutated_ms_never_panics(case in (1usize..3, 1usize..5, 1usize..4, 0usize..LETTERS.len())
        .prop_flat_map(|(r, s, n, g)| {
            let doc = valid_ms_doc(r, s, n);
            let len = doc.len();
            (0..len).prop_map(move |at| (doc.clone(), at, LETTERS[g] as char))
        }))
    {
        let (doc, at, garble) = case;
        let mut bytes = doc.into_bytes();
        bytes[at] = garble as u8;
        if let Ok(reps) = read_ms(&bytes[..], opts()) {
            for a in &reps {
                check_alignment(a)?;
            }
        }
    }

    #[test]
    fn non_numeric_segsites_is_an_error(idx in vec(0usize..LETTERS.len(), 1..8)) {
        let word: String = idx.iter().map(|&i| LETTERS[i] as char).collect();
        let doc = format!("//\nsegsites: {word}\n");
        prop_assert!(read_ms(doc.as_bytes(), opts()).is_err());
    }

    #[test]
    fn positions_count_mismatch_is_an_error(n in 1usize..6, extra in 1usize..4) {
        // Declares `n` segsites but supplies `n + extra` positions.
        let mut doc = format!("//\nsegsites: {n}\npositions:");
        for i in 0..n + extra {
            doc.push_str(&format!(" {:.5}", (i + 1) as f64 / (n + extra + 1) as f64));
        }
        doc.push('\n');
        prop_assert!(read_ms(doc.as_bytes(), opts()).is_err());
    }

    #[test]
    fn vcf_arbitrary_bytes_never_panic(bytes in vec(0u8..255, 0..400)) {
        if let Ok(outcome) = read_vcf(&bytes[..]) {
            check_alignment(&outcome.alignment)?;
        }
    }

    #[test]
    fn non_utf8_vcf_soup_is_a_typed_error(
        case in (1usize..6, vec(0usize..VCF_SOUP.len(), 0..200), 0usize..256, 0x80u8..0xff)
            .prop_flat_map(|(n, soup, at, high)| {
                let doc = valid_vcf_doc(n);
                let len = doc.len();
                (0..len).prop_map(move |cut| (doc.clone(), soup.clone(), at, high, cut))
            })
    ) {
        // A valid prefix, VCF-shaped soup, and one byte that is never
        // UTF-8 next to ASCII. The reader may stop (or fail) before the
        // byte's line; if it fails on that line, the error is typed I/O.
        let (doc, soup, at, high, cut) = case;
        let mut bytes = doc.as_bytes()[..cut].to_vec();
        bytes.extend(soup.iter().map(|&i| VCF_SOUP[i]));
        let at = at.min(bytes.len());
        bytes.insert(at, high);
        match read_vcf(&bytes[..]) {
            Ok(outcome) => check_alignment(&outcome.alignment)?,
            Err(GenomeError::Io(e)) => {
                prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
            }
            Err(_) => {}
        }
        // A lone high byte on the first data line is always reached.
        let mut lone = b"chr1\t10\t.\tA\tT\t.\tPASS\t.\tGT\t0|1".to_vec();
        lone.insert(at.min(lone.len()), high);
        let err = read_vcf(&lone[..]).map(drop).unwrap_err();
        prop_assert!(err.to_string().contains("valid UTF-8"), "{}", err);
    }

    #[test]
    fn truncated_vcf_never_panics(case in (1usize..8)
        .prop_flat_map(|n| doc_with_cut(valid_vcf_doc(n))))
    {
        let (doc, cut) = case;
        if let Ok(outcome) = read_vcf(&doc.as_bytes()[..cut]) {
            check_alignment(&outcome.alignment)?;
        }
    }

    #[test]
    fn vcf_short_record_is_an_error(fields in 1usize..10) {
        // A data line with fewer than 10 tab-separated fields must error.
        let record = (0..fields).map(|_| "x").collect::<Vec<_>>().join("\t");
        let doc = format!("##fileformat=VCFv4.2\n{record}\n");
        prop_assert!(read_vcf(doc.as_bytes()).is_err());
    }

    #[test]
    fn vcf_bad_pos_is_an_error(idx in vec(0usize..LETTERS.len(), 1..6)) {
        let word: String = idx.iter().map(|&i| LETTERS[i] as char).collect();
        let doc = format!(
            "##fileformat=VCFv4.2\nchr1\t{word}\t.\tA\tT\t.\tPASS\t.\tGT\t0|1\n"
        );
        prop_assert!(read_vcf(doc.as_bytes()).is_err());
    }

    #[test]
    fn fasta_arbitrary_bytes_never_panic(bytes in vec(0u8..255, 0..300)) {
        if let Ok(a) = read_fasta(&bytes[..]) {
            check_alignment(&a)?;
        }
    }
}
