(** Canonical content fingerprints for chip + assay + solver options.

    The digest is computed over the {e parsed} representation — the
    canonical [Chip_io.to_string] / [Assay_io.to_string] renderings — never
    over file bytes, so two submissions that parse to the same architecture
    and sequencing graph fingerprint identically regardless of comment
    lines, directive order quirks the parser tolerates, or whether the chip
    arrived as a benchmark name or a [.chip] file.  Conversely any semantic
    difference (a moved valve, a changed duration, another seed) changes
    the digest.

    The fingerprint is the content address of the serve-mode result cache,
    the identity the bench gate compares cold and cached solves under, and
    what [dft_tool fingerprint] prints. *)

type options = {
  full : bool;  (** paper-scale PSO budgets instead of quick *)
  seed : int;  (** PSO random seed *)
}
(** The submission options that determine the codesign result.  The job
    count, which provably does not affect results (bit-identical by
    construction), is deliberately excluded, so a parallel solve serves
    later serial submissions and vice versa.  Wall-clock deadlines are
    excluded too: budgeted runs trade determinism for latency, so the
    serve layer never caches them. *)

val default_options : options
(** [{ full = false; seed = 42 }] — the CLI defaults. *)

val canonical :
  chip:Mf_arch.Chip.t -> assay:Mf_bioassay.Seqgraph.t -> options:options -> string
(** The exact text the digest is computed over (versioned header, options,
    canonical chip and assay renderings) — exposed for debugging and the
    round-trip property tests. *)

val digest :
  chip:Mf_arch.Chip.t -> assay:Mf_bioassay.Seqgraph.t -> options:options -> string
(** Hex digest of {!canonical}. *)

val result_digest : Mfdft.Codesign.result -> string
(** Deterministic hex digest of a codesign result's semantic content: the
    shared architecture, the suite, the sharing scheme, every execution
    time, the convergence trace and the degradation list.  Wall-clock
    fields are excluded, so a resumed, re-run or differently-parallel solve
    of the same submission produces the same result digest — the identity
    the cache-poisoning guard and the bench byte-identity gate check. *)
