package com.gate;

public class Gate {
    public void open(int x) {
        if (x < 0) {
            throw new IllegalArgumentException("negative width");
        }
        int y = x * 2;
        check(y);
    }

    public void check(int y) {
        if (y > 10) {
            throw new IllegalStateException("too wide");
        }
    }
}
