(** Synthetic multi-class expression dataset.

    Generalises the two-class Golub-like generator to [k] classes, for
    exercising the analysis pipeline beyond the paper's binary case study
    (e.g. a three-way leukemia subtype panel ALL / AML / CML). Labels are
    plain integers in [\[0, n_classes)]. Class-conditional log-normal
    expression as in {!Golub}; each informative gene is over-expressed in
    exactly one class. *)

type params = {
  n_classes : int;
  n_genes : int;
  n_informative : int;       (** split round-robin across classes *)
  train_per_class : int array;  (** length [n_classes] *)
  test_per_class : int array;
  separation : float;
  noise_sigma : float;
}

type t = {
  train : (int array * int) array;  (** (features, label) *)
  test : (int array * int) array;
  n_classes : int;
  informative : int array;
}

val default_params : params
(** Three classes, 256 genes, 12 informative, imbalanced training counts
    (18/10/6) to retain a bias structure. *)

val generate : ?params:params -> seed:int -> unit -> t
(** Deterministic in the seed; raises [Invalid_argument] on inconsistent
    parameters. *)

val class_counts : (int array * int) array -> n_classes:int -> int array

val select_genes : t -> k:int -> bins:int -> int array
(** mRMR selection on the training set: {!Mrmr.select_rows}, the core
    the binary pipeline uses, with relevance against the integer labels. *)

val project : t -> genes:int array -> t
(** Restrict every sample to the given genes. *)
