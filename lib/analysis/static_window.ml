type handler_report = {
  hr_tag : Message.Tag.t;
  hr_coverage : float;
  hr_closes_at : Message.Tag.t option;
}

type server_report = {
  sr_ep : Endpoint.t;
  sr_handlers : handler_report list;
  sr_coverage : float;
}

let handler_coverage ?(multithreaded = false) (policy : Policy.t)
    (h : Summary.handler) =
  let in_window = ref 0 and total = ref 0 in
  let window_open = ref policy.Policy.window_on_receive in
  let closes_at = ref None in
  List.iter
    (fun (seg : Summary.segment) ->
       total := !total + seg.Summary.seg_weight;
       if !window_open then in_window := !in_window + seg.Summary.seg_weight;
       match seg.Summary.seg_then with
       | None -> ()
       | Some out ->
         let cls = Seep.classify ~dst:out.Summary.out_dst out.Summary.out_tag in
         (* In a multithreaded server a synchronous interaction parks
            the thread; the ensuing thread switch closes the window no
            matter how the SEEP is classified. *)
         let closes =
           policy.Policy.closes_window cls
           || (multithreaded && out.Summary.out_dst <> Endpoint.kernel)
         in
         if !window_open && closes then begin
           window_open := false;
           if !closes_at = None then closes_at := Some out.Summary.out_tag
         end)
    h.Summary.h_segments;
  { hr_tag = h.Summary.h_tag;
    hr_coverage =
      (if !total = 0 then 0.
       else float_of_int !in_window /. float_of_int !total);
    hr_closes_at = !closes_at }

let server_coverage ?(frequency = fun _ -> 1.) ?(multithreaded = false) policy
    (s : Summary.t) =
  let handlers =
    List.map (handler_coverage ~multithreaded policy) s.Summary.sum_handlers
  in
  let weighted =
    List.map2
      (fun hr (h : Summary.handler) ->
         let weight =
           frequency h.Summary.h_tag
           *. float_of_int
                (List.fold_left
                   (fun acc (seg : Summary.segment) -> acc + seg.Summary.seg_weight)
                   0 h.Summary.h_segments)
         in
         (hr.hr_coverage, weight))
      handlers s.Summary.sum_handlers
  in
  { sr_ep = s.Summary.sum_ep;
    sr_handlers = handlers;
    sr_coverage = Osiris_util.Stats.weighted_mean weighted }

let report ?frequency ?(multithreaded = fun ep -> ep = Endpoint.vfs) policy
    summaries =
  List.map
    (fun (s : Summary.t) ->
       server_coverage ?frequency ~multithreaded:(multithreaded s.Summary.sum_ep)
         policy s)
    summaries
