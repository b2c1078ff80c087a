(** Discrete mutual information for feature scoring.

    Continuous-valued gene expressions are discretised by equal-frequency
    (quantile) binning before MI is computed — the standard preprocessing
    for mRMR on microarray data. *)

val discretize : int array -> bins:int -> int array
(** [discretize values ~bins] maps each value to a bin index in
    [\[0, bins)]; bin boundaries are the quantiles of [values], so the bins
    have near-equal population. [bins] must be positive. *)

val mutual_information : int array -> int array -> float
(** [mutual_information xs ys] over two equal-length discrete sequences, in
    nats. Symmetric and non-negative (up to float rounding). The one-shot
    form: it sizes a fresh {!table} to the symbols; loops that score many
    pairs reuse one table through {!mutual_information_into}. *)

val entropy : int array -> float
(** Shannon entropy of a discrete sequence, in nats. *)

type table
(** Reusable count arrays for {!mutual_information_into}. *)

val table : kx:int -> ky:int -> table
(** Counts for sequences with symbols in [\[0, kx)] and [\[0, ky)]. *)

val mutual_information_into : table -> int array -> int array -> float
(** [mutual_information_into t xs ys] is the same double as
    [mutual_information xs ys], counted in [t]'s arrays instead of fresh
    ones. Raises [Invalid_argument] if a symbol lies outside [t]'s range
    or the lengths differ. *)
