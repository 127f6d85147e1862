(** Translation of simplex bases between successive epochs' LPs.

    The online scheduler solves one time-expanded LP per slot, and
    consecutive slots share almost all of their structure: the same base
    links, the same [X_ij] columns, shifted copies of the same
    storage/transmission arcs. Warm-starting the simplex from the previous
    slot's optimal basis is only possible if columns and rows can be
    matched across the two models — their raw indices are useless, since
    files arrive and depart and the horizon slides.

    This module gives every column and row a {e stable structural key}
    expressed in quantities that survive re-formulation: file id, base
    link id, base node id, and {e absolute} slot number. A {!t} is a basis
    snapshot indexed by such keys; {!capture} takes one from a solved
    model, {!apply} projects it onto the next epoch's model. Keys present
    in both models carry their status over; keys only in the new model get
    cold-start defaults; keys only in the snapshot are dropped. The result
    is fed to {!Lp.Simplex.solve}'s [?warm_start], which re-solves cold
    whatever the translation leaves it unable to finish. *)

type col_key =
  | Flow_tx of { file : int; link : int; slot : int }
      (** Transmission fraction [M^k_ijn]: file [k] on base link [ij]
          during absolute slot [n]. *)
  | Flow_store of { file : int; node : int; slot : int }
      (** Storage fraction: file [k] held at [node] across [slot]. *)
  | Charge of { link : int }  (** Charged volume [X_ij]. *)
  | Supply of { file : int }  (** Elastic supply variable (bulk/budget). *)
  | Anon_col of int  (** Fallback: keyed by raw index only. *)

type row_key =
  | Conservation of { file : int; node : int; slot : int }
  | Capacity of { link : int; slot : int }
  | Charge_dom of { link : int; slot : int }
      (** Dominance row [sum_k M^k_ijn <= X_ij]. *)
  | Anon_row of int

type keymap = {
  cols : col_key array;  (** Key of every model column, by index. *)
  rows : row_key array;  (** Key of every model row, by index. *)
}

(** Accumulates (index, key) registrations while a formulation is built;
    {!Texp_lp} fills one as it creates variables and rows. *)
module Registry : sig
  type t

  val create : unit -> t
  val set_col : t -> Lp.Model.var -> col_key -> unit
  val set_row : t -> Lp.Model.row -> row_key -> unit

  val keymap : t -> model:Lp.Model.t -> keymap
  (** Freeze the registrations into a keymap covering every column and row
      of [model]; unregistered indices get [Anon_col]/[Anon_row] keys. *)
end

type t
(** A portable basis snapshot: structural key -> simplex status. *)

val capture : keymap -> Lp.Status.Basis.t -> t
(** [capture keymap basis] re-keys an optimal basis by structural keys.
    Raises [Invalid_argument] when the keymap and basis disagree on the
    model's shape. *)

val apply : t -> keymap -> Lp.Status.Basis.t
(** [apply t keymap] projects the snapshot onto a (possibly different)
    model described by [keymap]. Never fails: unseen keys get cold-start
    defaults (columns nonbasic at lower bound, rows with slack basic). *)

val hit_rate : t -> keymap -> float
(** Fraction of [keymap]'s columns and rows found in the snapshot — a
    diagnostic for how much structure two epochs share. *)
