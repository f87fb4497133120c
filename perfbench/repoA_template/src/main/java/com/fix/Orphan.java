package com.fix;

public class Orphan {
    public void boom(int n) {
        if (n > 3) {
            throw new IllegalStateException("boom");
        }
    }
}
