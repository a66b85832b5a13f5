//! Pragmatic VCF reader: biallelic SNP records with GT genotype fields.
//!
//! Haploid or phased diploid genotypes are accepted; a diploid sample
//! contributes two haplotypes. Multi-allelic records, indels, and records
//! without a GT field are skipped (counted, so callers can report them).
//!
//! The reader works on bytes: each line is read into one reused buffer,
//! checked to be UTF-8, split on tab bytes, and its genotypes are packed
//! straight into a site's bit planes, so a record costs no allocation
//! beyond the site it produces.

use std::io::{self, BufRead};

use crate::alignment::Alignment;
use crate::bitvec::{SnpVec, WORD_BITS};
use crate::error::GenomeError;

/// Options controlling how a VCF stream is mapped to an [`Alignment`].
#[derive(Debug, Clone, Copy, Default)]
pub struct VcfReadOptions {
    /// Physical region length in bp. `None` derives it from the largest
    /// observed `POS` (the legacy behaviour); `Some(len)` uses `len` and
    /// rejects any record whose `POS` exceeds it, so a user-supplied
    /// `-length` cannot be silently contradicted by the data.
    pub region_len: Option<u64>,
}

/// Result of parsing a VCF stream.
#[derive(Debug)]
pub struct VcfOutcome {
    /// The parsed alignment (haplotypes in sample-column order).
    pub alignment: Alignment,
    /// Records skipped because they were not biallelic SNPs with GT data.
    pub skipped_records: usize,
    /// Records whose `POS` was smaller than an earlier record's (the
    /// reader sorts them back into position order before building).
    pub unsorted_records: usize,
    /// Records dropped because an earlier record already used their `POS`.
    pub duplicate_records: usize,
    /// Name of the contig that was parsed.
    pub contig: Option<String>,
}

/// Parses the first contig found in a VCF stream into a binary alignment,
/// deriving the region length from the data. See [`read_vcf_with`].
pub fn read_vcf<R: BufRead>(reader: R) -> Result<VcfOutcome, GenomeError> {
    read_vcf_with(reader, VcfReadOptions::default())
}

/// Parses the first contig found in a VCF stream into a binary alignment.
///
/// Records arriving out of `POS` order are sorted back into position order
/// (stable, preserving file order among equals) and records duplicating an
/// already-seen `POS` are dropped; both are counted in the outcome so
/// callers can warn rather than silently hand a corrupt alignment to the
/// scan.
pub fn read_vcf_with<R: BufRead>(
    mut reader: R,
    opts: VcfReadOptions,
) -> Result<VcfOutcome, GenomeError> {
    let mut records: Vec<(u64, SnpVec)> = Vec::new();
    let mut skipped = 0usize;
    let mut unsorted = 0usize;
    let mut contig: Option<String> = None;
    let mut n_haplotypes: Option<usize> = None;
    let mut max_pos = 0u64;
    let mut buf = Vec::new();
    let mut ln = 0usize;

    loop {
        buf.clear();
        if reader.read_until(b'\n', &mut buf)? == 0 {
            break;
        }
        ln += 1;
        let line = line_text(&buf)?;
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let mut fields = line.splitn(10, '\t');
        let head: [&str; 9] = std::array::from_fn(|_| fields.next().unwrap_or_default());
        let Some(samples) = fields.next() else {
            return Err(GenomeError::parse(
                "vcf",
                Some(ln),
                "record has fewer than 10 tab-separated fields",
            ));
        };
        let chrom = head[0];
        match &contig {
            None => contig = Some(chrom.to_string()),
            Some(c) if c != chrom => break, // single-contig reader: stop at next contig
            _ => {}
        }
        let pos: u64 =
            head[1].parse().map_err(|_| GenomeError::parse("vcf", Some(ln), "invalid POS"))?;
        if let Some(len) = opts.region_len {
            if pos > len {
                return Err(GenomeError::parse(
                    "vcf",
                    Some(ln),
                    format!("POS {pos} exceeds the stated region length {len}"),
                ));
            }
        }
        let (reference, alt) = (head[3], head[4]);
        if reference.len() != 1 || alt.len() != 1 || alt == "." {
            skipped += 1;
            continue;
        }
        let Some(gt_idx) = head[8].split(':').position(|f| f == "GT") else {
            skipped += 1;
            continue;
        };

        let site = pack_genotypes(samples.as_bytes(), gt_idx, n_haplotypes.unwrap_or(0));
        match n_haplotypes {
            None => n_haplotypes = Some(site.n_samples()),
            Some(n) if n != site.n_samples() => {
                return Err(GenomeError::SampleCountMismatch {
                    expected: n,
                    found: site.n_samples(),
                })
            }
            _ => {}
        }
        if !records.is_empty() && pos < max_pos {
            unsorted += 1;
        }
        max_pos = max_pos.max(pos);
        records.push((pos, site));
    }

    if unsorted > 0 {
        records.sort_by_key(|&(pos, _)| pos);
    }
    let mut duplicates = 0usize;
    let mut positions = Vec::with_capacity(records.len());
    let mut sites = Vec::with_capacity(records.len());
    for (pos, site) in records {
        if positions.last() == Some(&pos) {
            duplicates += 1;
            continue;
        }
        positions.push(pos);
        sites.push(site);
    }

    let alignment = Alignment::new(positions, sites, opts.region_len.unwrap_or(max_pos))?;
    Ok(VcfOutcome {
        alignment,
        skipped_records: skipped,
        unsorted_records: unsorted,
        duplicate_records: duplicates,
        contig,
    })
}

/// One line of text without its `\n` (and the `\r` of a CRLF ending), or
/// the same typed error `BufRead::lines` gives for bytes that are not
/// UTF-8.
fn line_text(buf: &[u8]) -> Result<&str, GenomeError> {
    let line = match buf.strip_suffix(b"\n") {
        Some(l) => l.strip_suffix(b"\r").unwrap_or(l),
        None => buf,
    };
    std::str::from_utf8(line).map_err(|_| {
        GenomeError::Io(io::Error::new(
            io::ErrorKind::InvalidData,
            "stream did not contain valid UTF-8",
        ))
    })
}

/// Packs the genotype columns of one record into a site. For every
/// tab-separated sample the `gt_idx`-th `:`-separated subfield (`.` when
/// absent) is split on `|` and `/`, and each token becomes one haplotype:
/// `0` ancestral, `1` derived, anything else missing. `expected` sizes the
/// planes up front (0 when unknown).
fn pack_genotypes(samples: &[u8], gt_idx: usize, expected: usize) -> SnpVec {
    let mut planes = PlaneWriter::with_capacity(expected);
    let mut rest = samples;
    loop {
        let end = rest.iter().position(|&b| b == b'\t').unwrap_or(rest.len());
        let gt = rest[..end].split(|&b| b == b':').nth(gt_idx).unwrap_or(b".");
        for token in gt.split(|&b| b == b'|' || b == b'/') {
            planes.push(token);
        }
        match rest.get(end + 1..) {
            Some(next) => rest = next,
            None => break,
        }
    }
    planes.finish()
}

/// Bit planes filled one haplotype at a time, a word at a time.
struct PlaneWriter {
    bits: Vec<u64>,
    valid: Vec<u64>,
    word_bits: u64,
    word_valid: u64,
    n: usize,
}

impl PlaneWriter {
    fn with_capacity(n_samples: usize) -> Self {
        let words = n_samples.div_ceil(WORD_BITS);
        PlaneWriter {
            bits: Vec::with_capacity(words),
            valid: Vec::with_capacity(words),
            word_bits: 0,
            word_valid: 0,
            n: 0,
        }
    }

    /// Appends the call one genotype token encodes. Branch-free on the
    /// call itself: random 0/1 genotypes would defeat a predictor.
    #[inline]
    fn push(&mut self, token: &[u8]) {
        let lane = self.n % WORD_BITS;
        let call = match token {
            [c] => *c,
            _ => b'.',
        };
        let derived = u64::from(call == b'1');
        let present = u64::from(call == b'0') | derived;
        self.word_bits |= derived << lane;
        self.word_valid |= present << lane;
        self.n += 1;
        if lane == WORD_BITS - 1 {
            self.flush();
        }
    }

    fn flush(&mut self) {
        self.bits.push(std::mem::take(&mut self.word_bits));
        self.valid.push(std::mem::take(&mut self.word_valid));
    }

    fn finish(mut self) -> SnpVec {
        if !self.n.is_multiple_of(WORD_BITS) {
            self.flush();
        }
        SnpVec::from_planes(self.bits, self.valid, self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitvec::Allele;
    use std::io::Cursor;

    const VCF: &str = "\
##fileformat=VCFv4.2
#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\ts1\ts2
chr1\t100\t.\tA\tG\t.\tPASS\t.\tGT\t0|1\t1|1
chr1\t200\t.\tC\tT\t.\tPASS\t.\tGT:DP\t0|0:12\t0|1:9
chr1\t300\t.\tG\tGA\t.\tPASS\t.\tGT\t0|1\t0|0
chr1\t400\t.\tT\tC\t.\tPASS\t.\tDP\t12\t9
chr1\t500\t.\tT\tA\t.\tPASS\t.\tGT\t.|1\t0|0
";

    #[test]
    fn parses_biallelic_snps_with_gt() {
        let out = read_vcf(Cursor::new(VCF)).unwrap();
        // 100, 200, 500 kept; 300 (indel) and 400 (no GT) skipped.
        assert_eq!(out.alignment.positions(), &[100, 200, 500]);
        assert_eq!(out.skipped_records, 2);
        assert_eq!(out.contig.as_deref(), Some("chr1"));
    }

    #[test]
    fn diploid_samples_become_two_haplotypes() {
        let out = read_vcf(Cursor::new(VCF)).unwrap();
        assert_eq!(out.alignment.n_samples(), 4);
        // Site at 100: GTs 0|1 and 1|1 -> derived count 3.
        assert_eq!(out.alignment.site(0).derived_count(), 3);
    }

    #[test]
    fn missing_genotype_handled() {
        let out = read_vcf(Cursor::new(VCF)).unwrap();
        let site = out.alignment.site(2); // position 500, GTs .|1 and 0|0
        assert_eq!(site.valid_count(), 3);
        assert_eq!(site.derived_count(), 1);
        assert_eq!(site.get(0), Allele::Missing);
    }

    #[test]
    fn gt_field_located_by_format() {
        let text = "\
#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\ts1
chr1\t10\t.\tA\tG\t.\t.\t.\tDP:GT\t7:1|0
";
        let out = read_vcf(Cursor::new(text)).unwrap();
        assert_eq!(out.alignment.site(0).derived_count(), 1);
    }

    #[test]
    fn stops_at_second_contig() {
        let text = "\
#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\ts1
chr1\t10\t.\tA\tG\t.\t.\t.\tGT\t1|0
chr2\t20\t.\tA\tG\t.\t.\t.\tGT\t1|1
";
        let out = read_vcf(Cursor::new(text)).unwrap();
        assert_eq!(out.alignment.n_sites(), 1);
        assert_eq!(out.contig.as_deref(), Some("chr1"));
    }

    #[test]
    fn unphased_separator_accepted() {
        let text = "\
#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\ts1
chr1\t10\t.\tA\tG\t.\t.\t.\tGT\t1/0
";
        let out = read_vcf(Cursor::new(text)).unwrap();
        assert_eq!(out.alignment.n_samples(), 2);
    }

    #[test]
    fn separators_and_empty_fields_split_like_tokens() {
        use Allele::{Missing as M, One, Zero};
        let calls = |samples: &str| {
            let text = format!("chr1\t10\t.\tA\tG\t.\t.\t.\tGT\t{samples}\n");
            let out = read_vcf(Cursor::new(text)).unwrap();
            out.alignment.site(0).iter().collect::<Vec<_>>()
        };
        // A `:` ends the GT subfield, so `:|1` is one empty (missing) call.
        assert_eq!(calls("0|1\t:|1"), [Zero, One, M]);
        assert_eq!(calls("||1"), [M, M, One]);
        // A trailing tab adds one more (empty) sample.
        assert_eq!(calls("0|\t"), [Zero, M, M]);
        assert_eq!(calls("\t|1"), [M, M, One]);
        assert_eq!(calls("1/\t/0"), [One, M, M, Zero]);
    }

    #[test]
    fn haplotype_count_mismatch_rejected() {
        let text = "\
#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\ts1
chr1\t10\t.\tA\tG\t.\t.\t.\tGT\t1|0
chr1\t20\t.\tA\tG\t.\t.\t.\tGT\t1
";
        assert!(read_vcf(Cursor::new(text)).is_err());
    }

    #[test]
    fn truncated_record_rejected() {
        let text = "chr1\t10\t.\tA\tG\n";
        assert!(read_vcf(Cursor::new(text)).is_err());
    }

    #[test]
    fn multi_allelic_alt_skipped() {
        let text = "\
#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\ts1
chr1\t10\t.\tA\tG\t.\t.\t.\tGT\t1|0
chr1\t20\t.\tG\tG,T\t.\t.\t.\tGT\t1|0
chr1\t30\t.\tC\tT\t.\t.\t.\tGT\t0|1
";
        let out = read_vcf(Cursor::new(text)).unwrap();
        assert_eq!(out.alignment.positions(), &[10, 30]);
        assert_eq!(out.skipped_records, 1);
    }

    #[test]
    fn unsorted_records_sorted_and_counted() {
        let text = "\
#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\ts1
chr1\t30\t.\tA\tG\t.\t.\t.\tGT\t1|0
chr1\t10\t.\tC\tT\t.\t.\t.\tGT\t0|1
chr1\t20\t.\tG\tA\t.\t.\t.\tGT\t1|1
";
        let out = read_vcf(Cursor::new(text)).unwrap();
        assert_eq!(out.alignment.positions(), &[10, 20, 30]);
        assert_eq!(out.unsorted_records, 2);
        assert_eq!(out.duplicate_records, 0);
        // The record parsed from POS 20 keeps its own genotypes (1|1)
        // after the reorder.
        assert_eq!(out.alignment.site(1).derived_count(), 2);
    }

    #[test]
    fn duplicate_pos_dropped_and_counted() {
        let text = "\
#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\ts1
chr1\t10\t.\tA\tG\t.\t.\t.\tGT\t1|0
chr1\t10\t.\tA\tT\t.\t.\t.\tGT\t0|1
chr1\t20\t.\tC\tT\t.\t.\t.\tGT\t0|1
";
        let out = read_vcf(Cursor::new(text)).unwrap();
        assert_eq!(out.alignment.positions(), &[10, 20]);
        assert_eq!(out.duplicate_records, 1);
        // First record at the shared POS wins.
        assert_eq!(out.alignment.site(0).get(0), Allele::One);
    }

    #[test]
    fn explicit_region_len_used() {
        let out =
            read_vcf_with(Cursor::new(VCF), VcfReadOptions { region_len: Some(10_000) }).unwrap();
        assert_eq!(out.alignment.region_len(), 10_000);
    }

    #[test]
    fn pos_beyond_region_len_rejected() {
        let err =
            read_vcf_with(Cursor::new(VCF), VcfReadOptions { region_len: Some(400) }).unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");
    }
}
