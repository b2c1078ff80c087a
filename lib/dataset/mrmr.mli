(** Minimum-Redundancy Maximum-Relevance feature selection.

    The paper selects the top five most significant genes with mRMR
    (reference [25]) before training. This is the standard greedy MID
    variant: the first gene maximises relevance [MI(gene; label)]; each
    subsequent gene maximises relevance minus mean redundancy
    [MI(gene; already-selected)]. *)

type score = { gene : int; relevance : float; redundancy : float }

val select : Sample.t array -> k:int -> bins:int -> int array
(** [select samples ~k ~bins] returns [k] gene indices in selection order.
    Requires a non-empty sample array and [1 <= k <= n_genes]. *)

val select_with_scores : Sample.t array -> k:int -> bins:int -> score array
(** Like [select] but also reports each pick's relevance and mean
    redundancy at selection time. *)

val select_rows : int array array -> labels:int array -> k:int -> bins:int -> score array
(** The selection behind [select_with_scores], over plain rows:
    [rows.(i)] is sample [i]'s feature vector and [labels.(i)] its class
    in [\[0, n_classes)]. Each gene is binned once; each step adds MI
    against the newest pick only. Same requirements as [select]. *)

val relevance_ranking : Sample.t array -> bins:int -> (int * float) array
(** All genes sorted by decreasing [MI(gene; label)] — the pure max-
    relevance baseline, exposed for the feature-selection ablation. *)
