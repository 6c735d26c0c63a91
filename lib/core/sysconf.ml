type t = {
  sc_name : string;
  sc_default : Policy.t;
  sc_compartments : Compartment.t list;  (* at most one per endpoint *)
}

let server_eps =
  [ Endpoint.pm; Endpoint.vfs; Endpoint.vm; Endpoint.ds; Endpoint.rs;
    Endpoint.mfs; Endpoint.bdev ]

let derive_name default compartments =
  let overrides =
    List.filter_map
      (fun c ->
         let p = Compartment.policy c and b = Compartment.budget c in
         if p.Policy.name = default.Policy.name && b = None then None
         else
           Some
             (Printf.sprintf "%s=%s%s" (Compartment.name c) p.Policy.name
                (match b with None -> "" | Some n -> "/" ^ string_of_int n)))
      compartments
  in
  match overrides with
  | [] -> default.Policy.name
  | ov -> default.Policy.name ^ "+" ^ String.concat "+" ov

let make ?name ~default compartments =
  List.iter
    (fun c ->
       let n =
         List.length
           (List.filter (fun c' -> Compartment.ep c' = Compartment.ep c)
              compartments)
       in
       if n > 1 then
         invalid_arg
           (Printf.sprintf "Sysconf.make: duplicate compartment for ep %d"
              (Compartment.ep c)))
    compartments;
  let sc_name =
    match name with Some n -> n | None -> derive_name default compartments
  in
  { sc_name; sc_default = default; sc_compartments = compartments }

let uniform ?name policy = make ?name ~default:policy []

let name t = t.sc_name
let default t = t.sc_default
let compartments t = t.sc_compartments

let compartment_for t ep =
  List.find_opt (fun c -> Compartment.ep c = ep) t.sc_compartments

let policy_for t ep =
  match compartment_for t ep with
  | Some c -> Compartment.policy c
  | None -> t.sc_default

let budget_for t ep =
  match compartment_for t ep with
  | Some c -> Compartment.budget c
  | None -> None

let override t c =
  let rest =
    List.filter (fun c' -> Compartment.ep c' <> Compartment.ep c)
      t.sc_compartments
  in
  let compartments = rest @ [ c ] in
  { t with
    sc_compartments = compartments;
    sc_name = derive_name t.sc_default compartments }

let assign t ep policy = override t (Compartment.make ep policy)

let with_budget t ep budget =
  let c =
    match compartment_for t ep with
    | Some c -> { c with Compartment.c_budget = Some budget }
    | None -> Compartment.make ~budget ep t.sc_default
  in
  override t c

let to_assoc t =
  List.map (fun c -> (Compartment.ep c, Compartment.policy c))
    t.sc_compartments

let validate t =
  let problems = ref [] in
  List.iter
    (fun c ->
       (match Compartment.budget c with
        | Some b when b < 0 ->
          problems :=
            Printf.sprintf "%s: negative restart budget %d"
              (Compartment.name c) b
            :: !problems
        | _ -> ());
       if
         Compartment.criticality c = Compartment.Critical
         && (Compartment.policy c).Policy.recovery = Policy.No_recovery
       then
         problems :=
           Printf.sprintf "%s: critical compartment with no recovery"
             (Compartment.name c)
           :: !problems)
    t.sc_compartments;
  match !problems with [] -> Ok () | ps -> Error (List.rev ps)

(* Spec strings, the CLI surface: "default[,server=policy[/budget]]...",
   e.g. "enhanced,ds=stateless,vm=pessimistic/3". *)

let ep_of_server_name n =
  List.find_opt (fun ep -> Endpoint.server_name ep = n) server_eps

(* [Policy.by_name] extended with on-demand graduated policies
   ("enhanced-grad3"). *)
let policy_of_string n =
  match Policy.by_name n with
  | Some p -> Some p
  | None ->
    (* graduated policies are parameterized, constructed on demand *)
    let prefix = "enhanced-grad" in
    let pl = String.length prefix in
    if String.length n > pl && String.sub n 0 pl = prefix then
      match int_of_string_opt (String.sub n pl (String.length n - pl)) with
      | Some k when k >= 0 -> Some (Policy.enhanced_graduated k)
      | _ -> None
    else None

let parse spec =
  match String.split_on_char ',' (String.trim spec) with
  | [] | [ "" ] -> Error "empty spec"
  | first :: rest ->
    (match policy_of_string (String.trim first) with
     | None -> Error (Printf.sprintf "unknown default policy %S" first)
     | Some default ->
       let rec go acc = function
         | [] -> (
           (* [make] rejects a server named twice *)
           try Ok (make ~default (List.rev acc))
           with Invalid_argument m -> Error m)
         | item :: rest -> (
           let item = String.trim item in
           match String.index_opt item '=' with
           | None ->
             Error
               (Printf.sprintf "expected server=policy[/budget], got %S" item)
           | Some i ->
             let server = String.sub item 0 i in
             let rhs =
               String.sub item (i + 1) (String.length item - i - 1)
             in
             let pol, budget =
               match String.index_opt rhs '/' with
               | None -> (rhs, Ok None)
               | Some j ->
                 let b =
                   String.sub rhs (j + 1) (String.length rhs - j - 1)
                 in
                 ( String.sub rhs 0 j,
                   match int_of_string_opt b with
                   | Some n when n >= 0 -> Ok (Some n)
                   | _ ->
                     Error (Printf.sprintf "bad restart budget %S" b) )
             in
             match (ep_of_server_name server, policy_of_string pol, budget)
             with
             | None, _, _ ->
               Error (Printf.sprintf "unknown server %S" server)
             | _, None, _ ->
               Error (Printf.sprintf "unknown policy %S" pol)
             | _, _, Error e -> Error e
             | Some ep, Some p, Ok budget ->
               go (Compartment.make ?budget ep p :: acc) rest)
       in
       go [] rest)
